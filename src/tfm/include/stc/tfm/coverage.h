// Coverage criteria over a TFM.
//
// The paper's Driver Generator implements *transaction coverage*: every
// enumerated transaction is exercised at least once (§3.4.1, "the weakest
// criterion among the ones presented in [Beizer, c.6.4.2]" — weakest among
// the transaction-flow criteria, yet subsuming node and link coverage).
// For the ablation study we also provide the two weaker graph criteria —
// all-nodes and all-links — realized as greedily chosen transaction
// subsets, so their fault-revealing power can be compared.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>
#include <vector>

#include "stc/tfm/graph.h"

namespace stc::tfm {

/// Fraction of nodes / edges of `g` touched by the given transactions.
struct CoverageReport {
    std::size_t nodes_covered = 0;
    std::size_t nodes_total = 0;
    std::size_t edges_covered = 0;
    std::size_t edges_total = 0;

    [[nodiscard]] double node_ratio() const noexcept {
        return nodes_total == 0 ? 1.0
                                : static_cast<double>(nodes_covered) /
                                      static_cast<double>(nodes_total);
    }
    [[nodiscard]] double edge_ratio() const noexcept {
        return edges_total == 0 ? 1.0
                                : static_cast<double>(edges_covered) /
                                      static_cast<double>(edges_total);
    }
};

[[nodiscard]] CoverageReport measure_coverage(
    const Graph& g, const std::vector<Transaction>& transactions);

/// Selection policies for deriving a test-relevant transaction subset.
enum class Criterion {
    AllTransactions,  ///< the paper's criterion: keep every transaction
    AllNodes,         ///< greedy subset covering every reachable node
    AllEdges,         ///< greedy subset covering every traversed edge
};

[[nodiscard]] const char* to_string(Criterion c) noexcept;
/// The inverse of to_string; std::nullopt for an unknown name.
[[nodiscard]] std::optional<Criterion> criterion_from_string(
    std::string_view text) noexcept;

/// Select indices into `transactions` satisfying the criterion.  Greedy
/// set cover for AllNodes/AllEdges (deterministic: ties break on lower
/// index).  AllTransactions returns every index.
[[nodiscard]] std::vector<std::size_t> select_transactions(
    const Graph& g, const std::vector<Transaction>& transactions, Criterion c);

}  // namespace stc::tfm

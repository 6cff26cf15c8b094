#include "stc/tfm/coverage.h"

#include <set>
#include <utility>

namespace stc::tfm {

namespace {

using EdgeKey = std::pair<NodeIndex, NodeIndex>;

std::set<EdgeKey> edges_of(const Transaction& t) {
    std::set<EdgeKey> out;
    for (std::size_t i = 0; i + 1 < t.path.size(); ++i) {
        out.insert({t.path[i], t.path[i + 1]});
    }
    return out;
}

}  // namespace

CoverageReport measure_coverage(const Graph& g,
                                const std::vector<Transaction>& transactions) {
    std::set<NodeIndex> nodes;
    std::set<EdgeKey> edges;
    for (const Transaction& t : transactions) {
        nodes.insert(t.path.begin(), t.path.end());
        const auto te = edges_of(t);
        edges.insert(te.begin(), te.end());
    }

    std::set<EdgeKey> all_edges;
    for (const Edge& e : g.edges()) all_edges.insert({e.from, e.to});

    CoverageReport report;
    report.nodes_total = g.node_count();
    report.nodes_covered = nodes.size();
    report.edges_total = all_edges.size();
    report.edges_covered = edges.size();
    return report;
}

const char* to_string(Criterion c) noexcept {
    switch (c) {
        case Criterion::AllTransactions: return "all-transactions";
        case Criterion::AllNodes: return "all-nodes";
        case Criterion::AllEdges: return "all-links";
    }
    return "?";
}

std::optional<Criterion> criterion_from_string(std::string_view text) noexcept {
    for (const Criterion c : {Criterion::AllTransactions, Criterion::AllNodes,
                              Criterion::AllEdges}) {
        if (text == to_string(c)) return c;
    }
    return std::nullopt;
}

std::vector<std::size_t> select_transactions(
    [[maybe_unused]] const Graph& g, const std::vector<Transaction>& transactions,
    Criterion c) {
    std::vector<std::size_t> out;
    if (c == Criterion::AllTransactions) {
        out.resize(transactions.size());
        for (std::size_t i = 0; i < out.size(); ++i) out[i] = i;
        return out;
    }

    // Greedy set cover over nodes or edges.  The universe is restricted to
    // items actually touched by some transaction, so the loop terminates
    // even when the graph has unreachable parts.
    if (c == Criterion::AllNodes) {
        std::set<NodeIndex> universe;
        std::vector<std::set<NodeIndex>> item_sets(transactions.size());
        for (std::size_t i = 0; i < transactions.size(); ++i) {
            item_sets[i].insert(transactions[i].path.begin(), transactions[i].path.end());
            universe.insert(item_sets[i].begin(), item_sets[i].end());
        }
        std::set<NodeIndex> covered;
        while (covered.size() < universe.size()) {
            std::size_t best = transactions.size();
            std::size_t best_gain = 0;
            for (std::size_t i = 0; i < transactions.size(); ++i) {
                std::size_t gain = 0;
                for (NodeIndex n : item_sets[i]) gain += covered.count(n) == 0 ? 1 : 0;
                if (gain > best_gain) {
                    best_gain = gain;
                    best = i;
                }
            }
            if (best == transactions.size()) break;
            covered.insert(item_sets[best].begin(), item_sets[best].end());
            out.push_back(best);
        }
        return out;
    }

    // AllEdges
    std::set<EdgeKey> universe;
    std::vector<std::set<EdgeKey>> item_sets(transactions.size());
    for (std::size_t i = 0; i < transactions.size(); ++i) {
        item_sets[i] = edges_of(transactions[i]);
        universe.insert(item_sets[i].begin(), item_sets[i].end());
    }
    std::set<EdgeKey> covered;
    while (covered.size() < universe.size()) {
        std::size_t best = transactions.size();
        std::size_t best_gain = 0;
        for (std::size_t i = 0; i < transactions.size(); ++i) {
            std::size_t gain = 0;
            for (const EdgeKey& e : item_sets[i]) gain += covered.count(e) == 0 ? 1 : 0;
            if (gain > best_gain) {
                best_gain = gain;
                best = i;
            }
        }
        if (best == transactions.size()) break;
        covered.insert(item_sets[best].begin(), item_sets[best].end());
        out.push_back(best);
    }
    return out;
    // Note: single-node transactions contribute no edges; a TFM whose only
    // transaction is birth==death is edge-covered vacuously.
}

}  // namespace stc::tfm

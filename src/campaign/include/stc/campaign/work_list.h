// The campaign work list, factored out of CampaignScheduler so every
// executor of campaign items — the in-process scheduler, the sandbox
// pool, and the distributed coordinator (`concat dispatch`) — agrees on
// item identity: the same per-item seed, the same result-store content
// key, and the same deterministic shard assignment for any given
// (campaign seed, fingerprint, suite, mutant list).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stc/mutation/engine.h"

namespace stc::campaign {

/// The suite-level transaction id used in per-item seed derivation: the
/// whole suite is one work item's "transaction" (finer sharding would
/// split classification across cases).
[[nodiscard]] std::string suite_tag(const driver::TestSuite& suite);

/// The result-store content key of one (campaign, mutant) item —
/// hex(mix(hash(fingerprint), hash(mutant id))).  Stable across
/// processes and hosts: the resume contract and the dispatch merge both
/// hang off this value.
[[nodiscard]] std::string item_key(const std::string& fingerprint,
                                   const std::string& mutant_id);

/// One campaign work item, pointer-free so it can cross a process or
/// host boundary (the coordinator ships index/mutant_id/item_seed in a
/// Work frame; the worker re-derives everything else from the
/// handshake config).
struct WorkItem {
    std::size_t index = 0;       ///< position in the mutant list
    std::string mutant_id;
    std::uint64_t item_seed = 0;
    std::string key;             ///< result-store content key
};

/// The full item list of a campaign, in mutant-list order.
[[nodiscard]] std::vector<WorkItem> build_work_list(
    std::uint64_t campaign_seed, const std::string& fingerprint,
    const driver::TestSuite& suite,
    const std::vector<mutation::Mutant>& mutants);

/// Deterministic shard assignment: which of `shards` owns `key`.
/// Stable across runs (content-hash based, not index based), so the
/// same campaign splits identically on every dispatch.
[[nodiscard]] std::size_t shard_of(const std::string& key,
                                   std::size_t shards) noexcept;

}  // namespace stc::campaign

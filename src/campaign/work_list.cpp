#include "stc/campaign/work_list.h"

#include "stc/campaign/seed.h"

namespace stc::campaign {

namespace {

/// Chained content hashing: h' = mix(h ^ fnv(token)).
std::uint64_t absorb(std::uint64_t h, std::string_view token) {
    return splitmix64(h ^ fnv1a64(token));
}

}  // namespace

std::string suite_tag(const driver::TestSuite& suite) {
    return suite.class_name + "#" + std::to_string(suite.seed);
}

std::string item_key(const std::string& fingerprint,
                     const std::string& mutant_id) {
    return to_hex(absorb(fnv1a64(fingerprint), mutant_id));
}

std::vector<WorkItem> build_work_list(
    std::uint64_t campaign_seed, const std::string& fingerprint,
    const driver::TestSuite& suite,
    const std::vector<mutation::Mutant>& mutants) {
    const std::string tag = suite_tag(suite);
    std::vector<WorkItem> items;
    items.reserve(mutants.size());
    for (std::size_t i = 0; i < mutants.size(); ++i) {
        WorkItem item;
        item.index = i;
        item.mutant_id = mutants[i].id();
        item.item_seed = derive_item_seed(campaign_seed, item.mutant_id, tag);
        item.key = item_key(fingerprint, item.mutant_id);
        items.push_back(std::move(item));
    }
    return items;
}

std::size_t shard_of(const std::string& key, std::size_t shards) noexcept {
    if (shards <= 1) return 0;
    return static_cast<std::size_t>(splitmix64(fnv1a64(key)) % shards);
}

}  // namespace stc::campaign

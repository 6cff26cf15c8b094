#include "stc/campaign/outcome_codec.h"

namespace stc::campaign {

void encode_outcome(obs::JsonObject& out, const mutation::MutantOutcome& outcome) {
    out.set("fate", mutation::to_string(outcome.fate))
        .set("reason", oracle::to_string(outcome.reason))
        .set("hit", outcome.hit_by_suite)
        .set("probe_kill", outcome.killed_by_probe);
    if (outcome.model_only) out.set("model_only", true);
    if (!outcome.sandbox.empty()) out.set("sandbox", outcome.sandbox);
    if (outcome.synthesized) out.set("synthesized", true);
}

std::optional<mutation::MutantOutcome> decode_outcome(const obs::JsonObject& in) {
    const auto fate_text = in.get_string("fate");
    const auto reason_text = in.get_string("reason");
    const auto hit = in.get_bool("hit");
    const auto probe_kill = in.get_bool("probe_kill");
    if (!fate_text || !reason_text || !hit || !probe_kill) return std::nullopt;
    const auto fate = mutation::fate_from_string(*fate_text);
    const auto reason = oracle::kill_reason_from_string(*reason_text);
    if (!fate || !reason) return std::nullopt;
    mutation::MutantOutcome outcome;
    outcome.fate = *fate;
    outcome.reason = *reason;
    outcome.hit_by_suite = *hit;
    outcome.killed_by_probe = *probe_kill;
    outcome.model_only = in.get_bool("model_only").value_or(false);
    outcome.sandbox = in.get_string("sandbox").value_or("");
    outcome.synthesized = in.get_bool("synthesized").value_or(false);
    return outcome;
}

void encode_prune_stats(obs::JsonObject& out, const mutation::PruneStats& stats) {
    out.set("executed_pairs", stats.executed_pairs)
        .set("pruned_pairs", stats.pruned_pairs)
        .set("decided_pairs", stats.decided_pairs)
        .set("memoized_pairs", stats.memoized_pairs)
        .set("memoized_calls", stats.memoized_calls);
}

mutation::PruneStats decode_prune_stats(const obs::JsonObject& in) {
    const auto count = [&](const char* key) {
        return in.get_uint(key).value_or(0);
    };
    mutation::PruneStats stats;
    stats.executed_pairs = count("executed_pairs");
    stats.pruned_pairs = count("pruned_pairs");
    stats.decided_pairs = count("decided_pairs");
    stats.memoized_pairs = count("memoized_pairs");
    stats.memoized_calls = count("memoized_calls");
    return stats;
}

}  // namespace stc::campaign

// The one MutantOutcome <-> JSON codec.
//
// Every boundary an item's outcome crosses speaks these fields: the
// result-store record (docs/FORMATS.md §5), the item-finish telemetry
// event, the fork-server sandbox reply (§8) and the dispatch Result
// payload (§10).  Fields go into a caller-owned flat object, so each
// boundary adds its own bookkeeping (key, item, wall_ms, ...) around
// them.
#pragma once

#include <optional>

#include "stc/mutation/engine.h"
#include "stc/mutation/prune.h"
#include "stc/obs/json.h"

namespace stc::campaign {

/// Write fate, reason, hit and probe_kill, then model_only, sandbox and
/// synthesized only when set (so stores of campaigns that never use
/// them stay byte-unchanged).  The mutant pointer does not travel.
void encode_outcome(obs::JsonObject& out, const mutation::MutantOutcome& outcome);

/// Parse the fields encode_outcome writes; std::nullopt when a required
/// field is missing or names an unknown fate/reason.  Extra fields are
/// ignored.  `mutant` is left null — the caller rebinds it by index.
[[nodiscard]] std::optional<mutation::MutantOutcome> decode_outcome(
    const obs::JsonObject& in);

/// Write the fast tier's pair counters (executed/pruned/decided/
/// memoized pairs, memoized calls).
void encode_prune_stats(obs::JsonObject& out, const mutation::PruneStats& stats);

/// Read them back; missing counters read as zero.
[[nodiscard]] mutation::PruneStats decode_prune_stats(const obs::JsonObject& in);

}  // namespace stc::campaign

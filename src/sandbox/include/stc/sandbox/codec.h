// Payload encoding above the frame layer (ipc.h): what the sandbox
// actually ships between orchestrator and worker.
//
// Two payload schemas, both one flat JSON object per frame
// (obs::JsonObject, docs/FORMATS.md §8):
//   - a MutantOutcome reply for `concat campaign --isolate` (the
//     request direction is just a decimal item index): one line of the
//     campaign outcome codec plus the item's prune counters;
//   - a TestResult reply for `concat fuzz --isolate` (the request is a
//     serialized one-case suite, driver/suite_io.h).
//
// The codec also builds the synthetic outcome recorded when a worker
// never replies at all: a sandbox termination IS a kill in the paper's
// §4 sense (condition i — the run crashed), so the item is fated
// Killed / reason Crash, with the outcome kind preserved verbatim in
// MutantOutcome::sandbox.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "stc/driver/runner.h"
#include "stc/mutation/engine.h"
#include "stc/mutation/prune.h"

namespace stc::sandbox {

/// One reply line in the campaign outcome codec (campaign/
/// outcome_codec.h), `stats` riding along as pair counters when given.
[[nodiscard]] std::string encode_outcome(
    const mutation::MutantOutcome& outcome,
    const mutation::PruneStats* stats = nullptr);

/// Parse a reply line; std::nullopt on malformed input (a worker that
/// printed garbage).  `mutant` is left null.
[[nodiscard]] std::optional<mutation::MutantOutcome> decode_outcome(
    std::string_view payload);

/// The outcome recorded for an item whose worker crashed, hung, or hit
/// a resource limit instead of replying: Killed / Crash / hit, with
/// `kind` ("crash-signal:<n>" | "timeout" | "resource-limit" |
/// "worker-exit:<c>") stored in MutantOutcome::sandbox.
[[nodiscard]] mutation::MutantOutcome outcome_from_termination(
    std::string kind);

/// Serialize one TestResult (fuzz isolated replay reply).
[[nodiscard]] std::string encode_result(const driver::TestResult& result);

/// Parse a TestResult reply frame; std::nullopt on malformed input.
[[nodiscard]] std::optional<driver::TestResult> decode_result(
    std::string_view payload);

}  // namespace stc::sandbox

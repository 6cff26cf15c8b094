// Aggregation of a campaign telemetry stream (docs/FORMATS.md §5) into
// a human-readable run summary — the `concat stats` reporter.
//
// Input is the JSONL a campaign writes through JsonlSink: the
// scheduler's campaign-start / item-resumed / item-start / item-finish /
// campaign-end events, then the item-shrunk events of the
// --shrink-corpus post-pass.  A file may hold several *generations* (a
// resumed campaign appends a new campaign-start; satellite of the
// resume contract), and its tail line may be torn by the interruption
// that made the resume necessary — both are handled: items deduplicate
// by index (last event wins) and unparseable lines are counted, not
// fatal.  The rendered report is deterministic for a fixed input file.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "stc/obs/json.h"

namespace stc::obs {

struct TelemetryStats {
    /// One classified work item (mutant), deduplicated by index across
    /// generations and event kinds (item-finish or item-resumed).
    struct Item {
        std::uint64_t index = 0;
        std::string mutant;
        std::string fate;
        std::string reason;
        /// Sandbox termination kind ("crash-signal:<n>" / "timeout" /
        /// "resource-limit" / "worker-exit:<c>"); empty when the item
        /// ran to completion (docs/FORMATS.md §8).
        std::string sandbox;
        /// Killed only by the reference-model oracle (the item-finish /
        /// item-resumed `model_only` field); false for model-less runs.
        bool model_only = false;
        double wall_ms = 0.0;
        std::uint64_t worker = 0;
        bool has_timing = false;  ///< false for resumed items
    };

    /// Per-worker execution load, from item-finish events.
    struct WorkerLoad {
        std::uint64_t worker = 0;
        std::size_t items = 0;
        double busy_ms = 0.0;
    };

    /// Per-operator wall-time distribution over the timed items
    /// (exact order statistics — the raw wall_ms values are at hand,
    /// unlike the bucketed obs::metrics histograms).
    struct OperatorLatency {
        std::string op;  ///< mutation operator, e.g. "IndVarRepReq"
        std::size_t items = 0;
        double p50_ms = 0.0;
        double p90_ms = 0.0;
        double p99_ms = 0.0;
    };

    // Identity, from the last campaign-start event.
    std::string campaign;
    std::string class_name;
    std::uint64_t seed = 0;
    std::uint64_t jobs = 0;
    std::uint64_t declared_mutants = 0;
    std::uint64_t cases = 0;
    /// The campaign ran with the differential model oracle attached
    /// (campaign-start `model` field; false for pre-model streams).
    bool model = false;

    // Stream shape.
    std::size_t generations = 0;       ///< campaign-start events seen
    std::size_t lines = 0;             ///< non-blank lines read
    std::size_t malformed_lines = 0;   ///< dropped (e.g. a torn tail write)
    std::size_t starts = 0;            ///< item-start events
    std::size_t finishes = 0;          ///< item-finish events
    std::size_t resumes = 0;           ///< item-resumed events
    std::size_t streams = 0;           ///< input streams absorbed

    // Distributed campaign service (docs/FORMATS.md §10): the
    // coordinator's worker-connect / worker-disconnect /
    // worker-redispatch events plus the daemon-side worker-session
    // markers.  Counted across every absorbed stream — a coordinator
    // file merged with its per-worker files tallies both perspectives.
    std::size_t worker_connects = 0;
    std::size_t worker_disconnects = 0;
    std::size_t redispatched = 0;
    std::size_t serve_sessions = 0;
    /// Streamed worker metrics snapshots ("metrics-snapshot" events,
    /// docs/FORMATS.md §11) seen in the stream.
    std::size_t metrics_snapshots = 0;

    std::vector<Item> items;  ///< sorted by index
    /// item-shrunk events (persisted kill reproducers) of the last
    /// generation.
    std::size_t shrunk_items = 0;
    /// Kill-reason names the stream declared (one `kill-reason` event
    /// per kind at campaign end) — rows for the kill-reason table even
    /// at count zero, so a detector that never fired stays visible.
    /// Empty for streams older than the declaration events.
    std::vector<std::string> declared_kill_reasons;

    // Fuzz stream (fuzz-start / fuzz-finding / fuzz-verdict / fuzz-end
    // events, emitted by `concat fuzz`).  A telemetry file may hold a
    // fuzz run, a campaign, or both.
    struct FuzzFinding {
        std::string key;             ///< "verdict|method" dedupe key
        std::string verdict;
        std::uint64_t iteration = 0; ///< exploration step that found it
        std::uint64_t shrink_steps = 0;
        std::uint64_t calls = 0;     ///< reproducer length (method calls)
    };
    std::size_t fuzz_runs = 0;            ///< fuzz-start events
    std::string fuzz_class;
    std::uint64_t fuzz_seed = 0;
    std::vector<FuzzFinding> fuzz_findings;
    /// verdict kind -> executions.  `concat fuzz` emits one fuzz-verdict
    /// event per kind — including zero-count contract-not-enforced and
    /// setup-error — so every verdict shows in the table.
    std::map<std::string, std::uint64_t> fuzz_verdicts;
    bool have_fuzz_summary = false;       ///< fuzz-end seen
    std::uint64_t fuzz_iterations = 0;
    std::uint64_t fuzz_executions = 0;
    std::uint64_t fuzz_interesting = 0;
    std::uint64_t fuzz_population = 0;

    // Kill stream (kill-run-start / kill-start / kill-candidate /
    // kill-verified / kill-gave-up / kill-run-end events, emitted by
    // `concat kill`; docs/FORMATS.md §14).  A telemetry file may hold a
    // campaign, a kill pass, or both (a campaign store raised in place).
    struct KillAttempt {
        std::string mutant;
        /// "verified", or the gave-up status ("site-unreachable" /
        /// "search-exhausted" / "budget-exhausted"); "searching" when
        /// the stream was cut between kill-start and its outcome.
        std::string outcome = "searching";
        std::string reason;                  ///< kill reason when verified
        std::uint64_t candidate_calls = 0;   ///< killer length before shrinking
        std::uint64_t calls = 0;             ///< killer length after shrinking
        std::uint64_t shrink_steps = 0;
        std::uint64_t states = 0;            ///< search budget consumed
        bool widened = false;                ///< spec-alphabet (phase 2) killer
        std::string corpus;                  ///< reproducer basename; may be ""
    };
    std::size_t kill_runs = 0;  ///< kill-run-start events
    std::string kill_class;
    std::uint64_t kill_survivors = 0;
    std::uint64_t kill_budget_states = 0;
    std::uint64_t kill_max_depth = 0;
    std::vector<KillAttempt> kill_attempts;  ///< dedupe by mutant, last wins
    bool have_kill_summary = false;          ///< kill-run-end seen
    std::uint64_t kill_verified = 0;
    std::uint64_t kill_killed_before = 0;
    std::uint64_t kill_killed_after = 0;
    std::string kill_score_before;  ///< rendered percents, e.g. "94.4%"
    std::string kill_score_after;

    // Final summary, from the last campaign-end event (absent when the
    // run was interrupted).
    bool have_summary = false;
    std::uint64_t killed = 0;
    std::uint64_t equivalent = 0;
    std::uint64_t not_covered = 0;
    std::uint64_t executed = 0;
    std::uint64_t workers = 0;
    std::uint64_t steals = 0;
    double score = 0.0;
    double wall_ms = 0.0;

    /// Parse a telemetry stream.  Never throws on content: anything
    /// unparseable bumps malformed_lines.
    [[nodiscard]] static TelemetryStats from_stream(std::istream& in);

    /// Parse a telemetry file; throws stc::Error when it cannot open.
    [[nodiscard]] static TelemetryStats from_file(const std::string& path);

    /// Aggregate several telemetry files (e.g. a dispatch coordinator's
    /// stream plus each worker daemon's) into one summary.  Items
    /// deduplicate by index across files — the same item reported by
    /// coordinator and worker counts once — and each file's torn tail
    /// is dropped independently.  Throws when any file cannot open.
    [[nodiscard]] static TelemetryStats from_files(
        const std::vector<std::string>& paths);

    /// Fold one more stream into this summary (the from_files
    /// worker; usable directly for incremental aggregation).
    void absorb_stream(std::istream& in);

    /// Fold one line into this summary: blank lines are skipped,
    /// unparseable ones bump malformed_lines, events dispatch to
    /// absorb_event.  The incremental entry point used by the live
    /// followers; items are NOT re-sorted (see sort_items).
    void absorb_line(std::string_view line);

    /// Fold one already-parsed event into this summary.
    void absorb_event(const JsonObject& event);

    /// Re-sort items by index (absorb_stream does this after each whole
    /// stream; incremental absorb_line callers invoke it before any
    /// order-sensitive rendering).
    void sort_items();

    /// fate -> item count, over the deduplicated items.
    [[nodiscard]] std::map<std::string, std::size_t> fate_counts() const;

    /// kill reason -> count, over the killed items; pre-seeded with a
    /// zero row for every declared kill-reason kind.
    [[nodiscard]] std::map<std::string, std::size_t> kill_reasons() const;

    /// Mutants killed only by the reference-model oracle.
    [[nodiscard]] std::size_t model_only_kills() const;

    /// sandbox termination kind -> count, over the sandbox-terminated
    /// items (empty map for an in-process run).
    [[nodiscard]] std::map<std::string, std::size_t> sandbox_kinds() const;

    /// Per-worker load, sorted by worker id.
    [[nodiscard]] std::vector<WorkerLoad> worker_loads() const;

    /// Per-operator p50/p90/p99 wall time over the timed items, sorted
    /// by operator name.  The operator is parsed out of the mutant id
    /// ("Class::Method@site.Operator.detail" -> "Operator"); items with
    /// unrecognizable ids group under "?".
    [[nodiscard]] std::vector<OperatorLatency> operator_latencies() const;

    /// Render the summary: header, fate breakdown, kill-reason
    /// histogram, the `top` slowest items, worker utilization.
    void render(std::ostream& os, std::size_t top = 10) const;

    /// Render one compact live snapshot (the `concat stats --follow` /
    /// `concat dispatch --progress` view): progress against
    /// declared_mutants, fate counts, items/sec and ETA computed from
    /// `elapsed_s` on the follower's clock, per-worker load, and the
    /// per-operator p50/p90/p99 line.
    void render_follow(std::ostream& os, double elapsed_s) const;

    /// Machine-readable mirror of render(): one JSON object covering
    /// the header, fates, kill reasons, oracle strength, sandbox kinds,
    /// worker loads, operator latencies, the `top` slowest items, and
    /// the fuzz section (docs/FORMATS.md §11).
    void write_json(std::ostream& os, std::size_t top = 10) const;

private:
    /// index -> slot in items, maintained by absorb_event and rebuilt
    /// by sort_items (sorting invalidates slots).
    std::map<std::uint64_t, std::size_t> by_index_;
    /// mutant id -> slot in kill_attempts (kill events carry no index;
    /// the mutant id is the natural key).
    std::map<std::string, std::size_t> kill_by_mutant_;
};

/// Incremental reader over a growing telemetry JSONL file — the
/// `--follow` primitive.  Each poll() absorbs the complete lines
/// appended since the previous poll; a torn tail (bytes after the last
/// newline) is held back until its newline arrives, so a writer caught
/// mid-line never produces a malformed-line count or a half-parsed
/// event.  The file may not exist yet at construction; poll() simply
/// finds nothing.
class TelemetryTail {
public:
    explicit TelemetryTail(std::string path) : path_(std::move(path)) {}

    /// Absorb newly appended complete lines into `stats`; returns how
    /// many lines were absorbed.
    std::size_t poll(TelemetryStats& stats);

private:
    std::string path_;
    std::uint64_t offset_ = 0;
    std::string partial_;
};

}  // namespace stc::obs

// CampaignScheduler — parallel orchestration of mutation campaigns.
//
// The serial MutationEngine evaluates mutants one at a time; campaign
// cost is mutants x transactions.  The scheduler shards the (mutant x
// suite) work items of one campaign across an executor (executor.h:
// thread pool, fork-server or remote daemons) and reassembles a
// MutationRun whose fates and kill reasons are
// bit-identical to the serial engine's, because
//   - every item derives its own RNG seed from (campaign seed, mutant
//     id, transaction id) instead of sharing a sequential stream
//     (seed.h),
//   - mutant activation and hit tracking are per-thread
//     (MutationController is thread_local), and
//   - outcomes land in per-item slots, ordered by item index, never by
//     completion time.
//
// Resumability: with a store path set, every finished item is appended
// to a content-hashed JSONL results file; reopening the same campaign
// skips the finished items (ResultStore).  Telemetry: every scheduling
// event can be streamed as JSONL (obs::JsonlSink, docs/FORMATS.md §5).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "stc/campaign/executor.h"
#include "stc/campaign/result_store.h"
#include "stc/mutation/engine.h"
#include "stc/obs/context.h"

namespace stc::campaign {

struct CampaignOptions {
    /// Worker threads; 0 selects the hardware concurrency, 1 runs the
    /// items inline (the serial reference).
    std::size_t jobs = 1;
    /// Campaign seed: root of all per-item seed derivation, and part of
    /// the campaign fingerprint.
    std::uint64_t seed = 20010701;
    /// Path of the resumable result store; empty disables persistence.
    /// A store written by a different campaign (seed, suite, mutants or
    /// oracle changed) is discarded, not resumed.
    std::string store_path;
    /// Path of the JSONL telemetry stream (docs/FORMATS.md §5); empty
    /// disables it.  When store_path is also set (a resumable
    /// campaign), the file opens in append mode so a resumed run
    /// extends — never wipes — the interrupted generation's telemetry.
    /// Distinct from the Chrome trace written by obs.tracer.
    std::string telemetry_path;
    /// Span tracer + metrics registry, threaded through the runner, the
    /// oracle, and every mutant evaluation.  Disabled by default; both
    /// handles are thread-safe.
    obs::Context obs;
    /// Engine configuration shared by every item.  The runner's
    /// log_path must be empty (a shared append-file would interleave
    /// across workers); manual_oracle, when set, must be thread-safe.
    /// Its obs context is overwritten with the campaign-level `obs`.
    mutation::EngineOptions engine;
    /// When non-empty, every mutant KILLED in this run has its killing
    /// test case located, minimized with the delta-debugging shrinker
    /// (stc::fuzz, preserving the oracle's kill classification), and
    /// persisted into this corpus directory as a replayable reproducer.
    /// Requires `spec` and the in-process pool (`executor` null).
    /// Deterministic per item: the corpus contents do not depend on
    /// --jobs.  Resumed items are skipped (the original run already
    /// saved theirs).
    std::string shrink_corpus_dir;
    /// Shrink budget per killed mutant, in predicate evaluations (each
    /// costs a mutated + an unmutated execution of the candidate).
    std::size_t max_shrink_steps = 256;
    /// Component spec backing the suite — needed to shrink (TFM path
    /// validity, value domains).  Non-owning; required iff
    /// shrink_corpus_dir is set.
    const tspec::ComponentSpec* spec = nullptr;
    /// Completions for replay verification of persisted reproducers.
    const driver::CompletionRegistry* completions = nullptr;
    /// Where pending items run (executor.h); null selects the in-process
    /// pool of `jobs` threads.  Resume, store, telemetry and merge stay
    /// the scheduler's, so fates and reports are byte-identical across
    /// executors.
    std::shared_ptr<Executor> executor;
    /// The fast execution tier (`concat campaign --prune`, the default):
    /// record a coverage-signature index during the golden run, skip
    /// every (mutant, case) pair whose mutation site the case provably
    /// never reaches, and resume covered cases from shared-prefix
    /// checkpoints (stc/mutation/prune.h).  Fates are byte-identical to
    /// the unpruned run — enforced by the differential harness in
    /// tests/prune_test.cpp — but the store fingerprint absorbs the
    /// prune-tier version, so pruned and unpruned stores never resume
    /// into each other.  Silently disengaged when a manual oracle is
    /// configured (the one detector that can kill a byte-identical
    /// report); a lockstep model only disables the memoization half.
    bool prune = true;
};

struct CampaignStats {
    std::size_t items = 0;
    std::size_t executed = 0;  ///< evaluated in this run
    std::size_t resumed = 0;   ///< restored from the result store
    std::size_t shrunk = 0;    ///< killed mutants with a persisted reproducer
    std::size_t workers = 1;
    std::uint64_t steals = 0;
    /// Sandbox workers re-forked after a crash/timeout/limit kill (0
    /// unless the executor forks).
    std::size_t respawns = 0;
    double wall_ms = 0.0;      ///< item-execution phase only
    bool pruned = false;  ///< the fast tier was engaged
    /// Fast-tier accounting summed over the executed items (all zero
    /// when pruning was not engaged).
    mutation::PruneStats pairs;
};

struct CampaignResult {
    mutation::MutationRun run;
    CampaignStats stats;
    std::string fingerprint;  ///< campaign identity (store header value)
};

class CampaignScheduler {
public:
    explicit CampaignScheduler(const reflect::Registry& bindings,
                               CampaignOptions options = {});

    /// Run the campaign: golden baselines are captured once (serially),
    /// then the pending items execute on the executor.  Equivalent to
    /// MutationEngine::run on the same inputs, fate-for-fate.
    [[nodiscard]] CampaignResult run(
        const driver::TestSuite& suite,
        const std::vector<mutation::Mutant>& mutants,
        const driver::TestSuite* probe_suite = nullptr) const;

    /// The campaign identity: a stable hash of the campaign seed, the
    /// suite (class, seed, case ids), the mutant population, and the
    /// oracle/runner configuration.  Items of equal fingerprint are
    /// interchangeable across process restarts — the resume contract.
    [[nodiscard]] std::string fingerprint(
        const driver::TestSuite& suite,
        const std::vector<mutation::Mutant>& mutants,
        const driver::TestSuite* probe_suite) const;

private:
    const reflect::Registry& bindings_;
    CampaignOptions options_;
};

}  // namespace stc::campaign

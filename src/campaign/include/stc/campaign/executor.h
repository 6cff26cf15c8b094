// The campaign engine's executor seam.
//
// CampaignScheduler owns everything about a campaign except where the
// mutants run: fingerprint, work list, resume, the store, telemetry and
// the merge.  An Executor takes the pending work items and reports one
// (outcome, prune counters, worker, wall time) per item.  Three
// backends plug in:
//   - ThreadPoolExecutor (here): the in-process work-stealing pool, the
//     default when CampaignOptions::executor is null;
//   - sandbox::SandboxExecutor: forked fork-server workers
//     (`concat campaign --isolate`);
//   - serve::RemoteExecutor: `concat serve` daemons over TCP
//     (`concat dispatch`).
// All three evaluate an item through ExecutionContext::evaluate.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "stc/campaign/work_list.h"
#include "stc/mutation/engine.h"
#include "stc/mutation/prune.h"
#include "stc/obs/json.h"

namespace stc::campaign {

/// Golden baselines, runners and the prune plan of one campaign,
/// prepared serially before any worker starts and read-only afterwards:
/// the thread pool shares one, forked sandbox children inherit it
/// copy-on-write, and a serve worker builds its own from the Hello.
class ExecutionContext {
public:
    /// Evaluate: golden runs (recording the coverage index when the fast
    /// tier is engaged) plus the prune plan, ready for evaluate().
    /// GoldenOnly: the suite's golden run alone, for a process whose
    /// items run elsewhere (the dispatch coordinator needs only the
    /// report's golden record); evaluate() must not be called.
    enum class Scope { Evaluate, GoldenOnly };

    /// `suite`, `probe_suite` (may be null) and `mutants` are borrowed.
    /// `engine.obs` receives the golden-baseline/prune-plan phases.
    ExecutionContext(const reflect::Registry& bindings,
                     const driver::TestSuite& suite,
                     const driver::TestSuite* probe_suite,
                     const std::vector<mutation::Mutant>& mutants,
                     mutation::EngineOptions engine, bool prune,
                     Scope scope = Scope::Evaluate);

    ExecutionContext(const ExecutionContext&) = delete;
    ExecutionContext& operator=(const ExecutionContext&) = delete;

    [[nodiscard]] const std::vector<mutation::Mutant>& mutants() const noexcept {
        return mutants_;
    }
    [[nodiscard]] const mutation::EngineOptions& engine() const noexcept {
        return engine_;
    }
    [[nodiscard]] const oracle::GoldenRecord& golden() const noexcept {
        return golden_;
    }
    /// The fast tier is engaged: pruning requested and no manual oracle
    /// (the one detector that can kill a byte-identical report).
    [[nodiscard]] bool pruned() const noexcept { return pruned_; }
    /// A lockstep reference model is attached and read by the oracle.
    [[nodiscard]] bool model_engaged() const noexcept;
    /// Empty unless pruned() and Scope::Evaluate.
    [[nodiscard]] const mutation::PrunePlan& plan() const noexcept { return plan_; }

    /// The pruned evaluator when the fast tier is engaged, the exhaustive
    /// one otherwise — same fates either way (tests/prune_test.cpp).
    [[nodiscard]] mutation::MutantOutcome evaluate(
        const mutation::Mutant& mutant,
        mutation::PruneStats* stats = nullptr) const;

private:
    const driver::TestSuite& suite_;
    const driver::TestSuite* probe_suite_;
    const std::vector<mutation::Mutant>& mutants_;
    mutation::EngineOptions engine_;
    bool pruned_;
    driver::TestRunner runner_;
    driver::TestRunner probe_runner_;
    const reflect::ClassBinding& binding_;
    oracle::GoldenRecord golden_;
    oracle::GoldenRecord probe_golden_;
    mutation::PrunePlan plan_;
};

/// What an executor reports for one finished item.
struct ItemResult {
    mutation::MutantOutcome outcome;  ///< `mutant` may be null
    mutation::PruneStats stats;       ///< zero unless the fast tier ran
    std::size_t worker = 0;
    double wall_ms = 0.0;
};

struct ExecutorStats {
    std::size_t workers = 0;   ///< workers that served items
    std::uint64_t steals = 0;  ///< thread pool only
    std::size_t respawns = 0;  ///< fork-server only
};

class Executor {
public:
    using Emit = std::function<void(const obs::JsonObject& event)>;
    using Done = std::function<void(const WorkItem& item, ItemResult result)>;

    /// One run's inputs.
    struct Batch {
        const ExecutionContext& context;
        const std::vector<WorkItem>& pending;
        std::size_t jobs;         ///< resolved CampaignOptions::jobs
        std::string fingerprint;  ///< campaign identity
        Emit emit;  ///< telemetry (item-start, worker lifecycle); thread-safe
        /// Once per pending item, possibly concurrently from worker
        /// threads; fills the item's own slot only.
        Done done;
    };

    Executor() = default;
    Executor(const Executor&) = delete;
    Executor& operator=(const Executor&) = delete;
    virtual ~Executor() = default;

    /// Items run in this process image (or a fork of it), so the
    /// scheduler prepares a full ExecutionContext, not GoldenOnly.
    [[nodiscard]] virtual bool local() const { return true; }

    /// The worker count campaign-start announces as "jobs".
    [[nodiscard]] virtual std::size_t workers(std::size_t jobs) const {
        return jobs;
    }

    /// Every telemetry event the scheduler emits, file or no file.
    virtual void observe(const obs::JsonObject& /*event*/) {}

    /// Evaluate every pending item and report each through `done`.
    virtual ExecutorStats run(const Batch& batch) = 0;
};

/// The in-process work-stealing pool of `jobs` threads (1 runs inline).
class ThreadPoolExecutor final : public Executor {
public:
    ExecutorStats run(const Batch& batch) override;
};

}  // namespace stc::campaign

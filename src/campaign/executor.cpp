#include "stc/campaign/executor.h"

#include <chrono>
#include <utility>

#include "stc/campaign/thread_pool.h"
#include "stc/mutation/coverage.h"

namespace stc::campaign {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

driver::RunnerOptions probe_options(driver::RunnerOptions options) {
    options.observe_each_call = true;
    return options;
}

}  // namespace

ExecutionContext::ExecutionContext(const reflect::Registry& bindings,
                                   const driver::TestSuite& suite,
                                   const driver::TestSuite* probe_suite,
                                   const std::vector<mutation::Mutant>& mutants,
                                   mutation::EngineOptions engine, bool prune,
                                   Scope scope)
    : suite_(suite),
      probe_suite_(probe_suite),
      mutants_(mutants),
      engine_(std::move(engine)),
      pruned_(prune && !engine_.manual_oracle),
      runner_(bindings, engine_.runner),
      probe_runner_(bindings, probe_options(engine_.runner)),
      binding_(bindings.at(suite.class_name)) {
    const obs::Context& obs = engine_.obs;
    const bool evaluate = scope == Scope::Evaluate;
    // Baseline golden runs, captured once, serially, before sharding
    // (the paper validates the original program's outputs up front).
    // With pruning engaged the SAME single run also records the
    // coverage-signature index — observation is free.
    mutation::CoverageIndex coverage;
    mutation::CoverageIndex probe_coverage;
    {
        const auto phase_start = Clock::now();
        const obs::SpanScope span(obs.tracer, "phase", "golden-baseline");
        const bool covered = pruned_ && evaluate;
        if (covered) {
            mutation::CoveredRun run =
                mutation::run_with_coverage(bindings, engine_.runner, suite_);
            golden_ = oracle::GoldenRecord::from(run.result);
            coverage = std::move(run.index);
        } else {
            golden_ = oracle::GoldenRecord::from(runner_.run(suite_));
        }
        if (probe_suite_ != nullptr && evaluate) {
            if (covered) {
                mutation::CoveredRun run = mutation::run_with_coverage(
                    bindings, probe_options(engine_.runner), *probe_suite_);
                probe_golden_ = oracle::GoldenRecord::from(run.result);
                probe_coverage = std::move(run.index);
            } else {
                probe_golden_ =
                    oracle::GoldenRecord::from(probe_runner_.run(*probe_suite_));
            }
        }
        obs.metrics.observe_ms("campaign.phase.baseline_ms", ms_since(phase_start));
    }
    if (!pruned_ || !evaluate) return;

    // Shared-prefix checkpoint ladders, built on the un-mutated component.
    // Memoization stands down under a lockstep model (resumed runs skip
    // the model leg); coverage pruning stays on.
    const auto phase_start = Clock::now();
    const obs::SpanScope span(obs.tracer, "phase", "prune-plan");
    mutation::PrunePlanOptions plan_options;
    plan_options.memoize = !model_engaged();
    plan_ = mutation::build_prune_plan(runner_, binding_, suite_, std::move(coverage),
                                       &probe_runner_, probe_suite_,
                                       std::move(probe_coverage), plan_options);
    obs.metrics.observe_ms("campaign.phase.prune_plan_ms", ms_since(phase_start));
}

bool ExecutionContext::model_engaged() const noexcept {
    return engine_.runner.model != nullptr && engine_.runner.model->valid() &&
           engine_.oracle.use_model;
}

mutation::MutantOutcome ExecutionContext::evaluate(const mutation::Mutant& mutant,
                                                   mutation::PruneStats* stats) const {
    const driver::TestRunner* probe_runner =
        probe_suite_ != nullptr ? &probe_runner_ : nullptr;
    if (pruned_) {
        return mutation::evaluate_mutant_pruned(mutant, runner_, binding_, suite_,
                                                golden_, probe_runner, probe_suite_,
                                                probe_golden_, plan_, engine_, stats);
    }
    const mutation::MutationEngine::SuiteExecutor run_suite = [this] {
        return runner_.run(suite_);
    };
    mutation::MutationEngine::SuiteExecutor run_probe;
    if (probe_runner != nullptr) {
        run_probe = [this] { return probe_runner_.run(*probe_suite_); };
    }
    return mutation::evaluate_mutant(mutant, run_suite, golden_, run_probe,
                                     probe_golden_, engine_);
}

ExecutorStats ThreadPoolExecutor::run(const Batch& batch) {
    std::vector<WorkStealingPool::Task> tasks;
    tasks.reserve(batch.pending.size());
    for (const WorkItem& item : batch.pending) {
        tasks.push_back([&batch, &item](const WorkerContext& worker) {
            const auto start = Clock::now();
            batch.emit(obs::JsonObject()
                           .set("event", "item-start")
                           .set("item", static_cast<std::uint64_t>(item.index))
                           .set("mutant", item.mutant_id)
                           .set("worker", static_cast<std::uint64_t>(worker.worker))
                           .set("queue", static_cast<std::uint64_t>(worker.queue_depth))
                           .set("stolen", worker.stolen));
            ItemResult result;
            result.outcome = batch.context.evaluate(
                batch.context.mutants()[item.index], &result.stats);
            result.worker = worker.worker;
            result.wall_ms = ms_since(start);
            batch.done(item, std::move(result));
        });
    }
    const WorkStealingPool pool(batch.jobs);
    ExecutorStats stats;
    stats.workers = pool.workers();
    stats.steals = pool.run(std::move(tasks));
    return stats;
}

}  // namespace stc::campaign

#include "stc/campaign/scheduler.h"

#include <chrono>
#include <memory>
#include <mutex>

#include "stc/campaign/outcome_codec.h"
#include "stc/campaign/seed.h"
#include "stc/campaign/thread_pool.h"
#include "stc/campaign/work_list.h"
#include "stc/mutation/prune.h"
#include "stc/obs/jsonl_sink.h"
#include "stc/support/error.h"

namespace stc::campaign {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Chained content hashing: h' = mix(h ^ fnv(token)).
std::uint64_t absorb(std::uint64_t h, std::string_view token) {
    return splitmix64(h ^ fnv1a64(token));
}
std::uint64_t absorb(std::uint64_t h, std::uint64_t value) {
    return splitmix64(h ^ value);
}

std::uint64_t absorb_suite(std::uint64_t h, const driver::TestSuite& suite) {
    h = absorb(h, suite.class_name);
    h = absorb(h, suite.seed);
    h = absorb(h, static_cast<std::uint64_t>(suite.cases.size()));
    for (const auto& tc : suite.cases) {
        h = absorb(h, tc.id);
        h = absorb(h, tc.transaction_text);
        h = absorb(h, tc.entry_state);
    }
    return h;
}

}  // namespace

CampaignScheduler::CampaignScheduler(const reflect::Registry& bindings,
                                     CampaignOptions options)
    : bindings_(bindings), options_(std::move(options)) {
    if (!options_.engine.runner.log_path.empty()) {
        throw ContractError(
            "campaign runner cannot append to a shared log file; leave "
            "RunnerOptions::log_path empty (use --telemetry-out for telemetry)");
    }
}

std::string CampaignScheduler::fingerprint(
    const driver::TestSuite& suite, const std::vector<mutation::Mutant>& mutants,
    const driver::TestSuite* probe_suite) const {
    std::uint64_t h = fnv1a64("stc-campaign-v1");
    h = absorb(h, options_.seed);
    h = absorb_suite(h, suite);
    h = absorb(h, static_cast<std::uint64_t>(mutants.size()));
    for (const auto& m : mutants) h = absorb(h, m.id());
    const auto& oracle = options_.engine.oracle;
    h = absorb(h, static_cast<std::uint64_t>((oracle.use_crashes ? 1 : 0) |
                                             (oracle.use_assertions ? 2 : 0) |
                                             (oracle.use_output_diff ? 4 : 0)));
    const auto& runner = options_.engine.runner;
    h = absorb(h, static_cast<std::uint64_t>((runner.check_invariants ? 1 : 0) |
                                             (runner.capture_reports ? 2 : 0) |
                                             (runner.observe_each_call ? 4 : 0)));
    // The model oracle changes what "killed" means, so it is campaign
    // identity — but only when actually engaged, keeping every
    // pre-model store fingerprint (and thus resumability) intact.
    if (runner.model != nullptr && runner.model->valid() && oracle.use_model) {
        h = absorb(h, "model-oracle");
    }
    // Same pattern for the fast execution tier: fates are identical by
    // contract, but the token still enters the identity (only when the
    // tier is engaged, preserving old stores) so a prune-rule revision —
    // kPruneIndexVersion bump — invalidates rather than resumes.
    if (options_.prune && !options_.engine.manual_oracle) {
        h = absorb(h, mutation::kPruneIndexToken);
    }
    if (probe_suite != nullptr) h = absorb_suite(h, *probe_suite);
    return to_hex(h);
}

CampaignResult CampaignScheduler::run(
    const driver::TestSuite& suite, const std::vector<mutation::Mutant>& mutants,
    const driver::TestSuite* probe_suite) const {
    const std::size_t jobs =
        options_.jobs == 0 ? WorkStealingPool::hardware_workers() : options_.jobs;
    ThreadPoolExecutor pool;
    Executor& executor = options_.executor != nullptr ? *options_.executor : pool;

    CampaignResult out;
    out.fingerprint = fingerprint(suite, mutants, probe_suite);
    out.stats.items = mutants.size();

    // The campaign-level observability context flows into every layer
    // below: runner (test-case/method-call spans), oracle, and each
    // mutant evaluation.  Never into the fingerprint or the report.
    mutation::EngineOptions engine = options_.engine;
    engine.obs = options_.obs;
    engine.runner.obs = options_.obs;
    const obs::SpanScope campaign_span(options_.obs.tracer, "phase", "campaign",
                                       obs::JsonObject()
                                           .set("class", suite.class_name)
                                           .set("fingerprint", out.fingerprint));

    obs::JsonlSink sink;
    if (!options_.telemetry_path.empty()) {
        // A resumable campaign appends: the telemetry of the generation
        // being resumed is evidence, not scratch.
        sink = obs::JsonlSink::to_file(options_.telemetry_path,
                                       options_.store_path.empty()
                                           ? obs::JsonlSink::OpenMode::Truncate
                                           : obs::JsonlSink::OpenMode::Append);
    }
    const Executor::Emit emit = [&sink, &executor](const obs::JsonObject& event) {
        executor.observe(event);
        sink.emit(event);
    };

    // Golden baselines (and, for an executor that evaluates here, the
    // coverage index and prune plan), serially, before any item runs.
    const ExecutionContext context(
        bindings_, suite, probe_suite, mutants, engine, options_.prune,
        executor.local() ? ExecutionContext::Scope::Evaluate
                         : ExecutionContext::Scope::GoldenOnly);
    out.run.golden = context.golden();
    out.run.baseline_clean = out.run.golden.all_passed();

    std::unique_ptr<ResultStore> store;
    if (!options_.store_path.empty()) {
        store = std::make_unique<ResultStore>(options_.store_path, out.fingerprint);
    }

    emit(obs::JsonObject()
             .set("event", "campaign-start")
             .set("campaign", out.fingerprint)
             .set("class", suite.class_name)
             .set("seed", options_.seed)
             .set("jobs", static_cast<std::uint64_t>(executor.workers(jobs)))
             .set("mutants", static_cast<std::uint64_t>(mutants.size()))
             .set("cases", static_cast<std::uint64_t>(suite.cases.size()))
             .set("probe", probe_suite != nullptr)
             .set("model", context.model_engaged())
             .set("prune", context.pruned())
             .set("baseline_clean", out.run.baseline_clean));
    const mutation::PrunePlan& plan = context.plan();
    if (context.pruned() && executor.local()) {
        // Coverage-index record (docs/FORMATS.md §12): what the golden
        // run learned, and the digest a reader can correlate across the
        // with/without-prune telemetry of one campaign.
        std::size_t checkpoints = 0;
        for (const auto& cp : plan.case_plans) checkpoints += cp.checkpoints.size();
        for (const auto& cp : plan.probe_case_plans) {
            checkpoints += cp.checkpoints.size();
        }
        emit(obs::JsonObject()
                 .set("event", "coverage-index")
                 .set("campaign", out.fingerprint)
                 .set("version", mutation::kPruneIndexVersion)
                 .set("cases", static_cast<std::uint64_t>(plan.coverage.cases().size()))
                 .set("pairs", static_cast<std::uint64_t>(plan.coverage.pair_count()))
                 .set("probe_pairs",
                      static_cast<std::uint64_t>(plan.probe_coverage.pair_count()))
                 .set("checkpoints", static_cast<std::uint64_t>(checkpoints))
                 .set("digest", to_hex(plan.coverage.fingerprint())));
    }

    // Resume pass (single-threaded, before any item runs): restore
    // finished items, queue the rest.
    const auto resume_start = Clock::now();
    obs::Tracer::Span resume_span =
        options_.obs.tracer.begin("phase", "resume-scan");
    std::vector<mutation::MutantOutcome> outcomes(mutants.size());
    std::vector<WorkItem> pending;
    for (WorkItem& item :
         build_work_list(options_.seed, out.fingerprint, suite, mutants)) {
        const ItemRecord* record =
            store == nullptr ? nullptr : store->find(item.key);
        if (record == nullptr) {
            pending.push_back(std::move(item));
            continue;
        }
        outcomes[item.index] = record->outcome();
        outcomes[item.index].mutant = &mutants[item.index];
        ++out.stats.resumed;
        emit(obs::JsonObject()
                 .set("event", "item-resumed")
                 .set("item", static_cast<std::uint64_t>(item.index))
                 .set("mutant", item.mutant_id)
                 .set("fate", record->fate)
                 .set("reason", record->reason)
                 .set("model_only", record->model_only));
    }
    options_.obs.tracer.end(std::move(resume_span));
    options_.obs.metrics.observe_ms("campaign.phase.resume_ms",
                                    ms_since(resume_start));

    // Item completion — the one place an item's fate lands: its outcome
    // slot, the pair totals, the item-finish event and the store record.
    // Runs on whichever thread the executor reports from, so everything
    // it touches is per-item or internally locked.
    std::mutex totals_mutex;
    const Executor::Done complete = [&](const WorkItem& item, ItemResult result) {
        mutation::MutantOutcome& outcome = outcomes[item.index];
        outcome = std::move(result.outcome);
        outcome.mutant = &mutants[item.index];
        {
            const std::lock_guard<std::mutex> lock(totals_mutex);
            out.stats.pairs += result.stats;
        }

        obs::JsonObject finish;
        finish.set("event", "item-finish")
            .set("item", static_cast<std::uint64_t>(item.index))
            .set("mutant", item.mutant_id)
            .set("worker", static_cast<std::uint64_t>(result.worker));
        encode_outcome(finish, outcome);
        finish.set("item_seed", item.item_seed)
            .set("wall_ms", result.wall_ms);
        if (context.pruned()) encode_prune_stats(finish, result.stats);
        emit(finish);

        if (store != nullptr) {
            ItemRecord record;
            record.key = item.key;
            record.mutant_id = item.mutant_id;
            record.item_index = item.index;
            record.item_seed = item.item_seed;
            record.wall_ms = result.wall_ms;
            record.set_outcome(outcome);
            store->append(record);
        }
    };

    const auto t0 = Clock::now();
    ExecutorStats executed;
    {
        const obs::SpanScope items_span(options_.obs.tracer, "phase",
                                        "item-execution");
        executed = executor.run(Executor::Batch{context, pending, jobs,
                                                out.fingerprint, emit, complete});
    }
    out.stats.wall_ms = ms_since(t0);
    out.stats.executed = pending.size();
    out.stats.workers = executed.workers;
    out.stats.steals = executed.steals;
    out.stats.respawns = executed.respawns;
    out.stats.pruned = context.pruned();
    out.run.outcomes = std::move(outcomes);

    const obs::Metrics& metrics = options_.obs.metrics;
    metrics.observe_ms("campaign.phase.items_ms", out.stats.wall_ms);
    metrics.add("campaign.items", out.stats.items);
    metrics.add("campaign.executed", out.stats.executed);
    metrics.add("campaign.resumed", out.stats.resumed);
    metrics.add("campaign.steals", out.stats.steals);
    metrics.add("campaign.respawns", out.stats.respawns);
    if (out.stats.pruned) {
        const mutation::PruneStats& pairs = out.stats.pairs;
        metrics.add("campaign.executed_pairs", pairs.executed_pairs);
        metrics.add("campaign.pruned_pairs", pairs.pruned_pairs);
        metrics.add("campaign.decided_pairs", pairs.decided_pairs);
        metrics.add("campaign.memoized_pairs", pairs.memoized_pairs);
        metrics.add("campaign.memoized_calls", pairs.memoized_calls);
    }

    // One kill-reason declaration per kind at campaign end, so `concat
    // stats` renders every detector as a row — zero-count included —
    // instead of silently dropping the kinds that never fired.
    for (const oracle::KillReason reason : oracle::kAllKillReasons) {
        if (reason == oracle::KillReason::None) continue;
        emit(obs::JsonObject()
                 .set("event", "kill-reason")
                 .set("reason", oracle::to_string(reason))
                 .set("kills", static_cast<std::uint64_t>(out.run.kills_by(reason))));
    }
    obs::JsonObject end;
    end.set("event", "campaign-end")
        .set("campaign", out.fingerprint)
        .set("items", static_cast<std::uint64_t>(out.stats.items))
        .set("executed", static_cast<std::uint64_t>(out.stats.executed))
        .set("resumed", static_cast<std::uint64_t>(out.stats.resumed))
        .set("killed", static_cast<std::uint64_t>(out.run.killed()))
        .set("killed_model_only",
             static_cast<std::uint64_t>(out.run.kills_model_only()))
        .set("equivalent", static_cast<std::uint64_t>(out.run.equivalent()))
        .set("not_covered", static_cast<std::uint64_t>(out.run.not_covered()))
        .set("score", out.run.score())
        .set("workers", static_cast<std::uint64_t>(out.stats.workers))
        .set("steals", out.stats.steals)
        .set("respawns", static_cast<std::uint64_t>(out.stats.respawns))
        .set("pruned", out.stats.pruned);
    encode_prune_stats(end, out.stats.pairs);
    end.set("wall_ms", out.stats.wall_ms);
    emit(end);
    return out;
}

}  // namespace stc::campaign

#include "stc/campaign/scheduler.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <sstream>

#include "stc/campaign/seed.h"
#include "stc/campaign/thread_pool.h"
#include "stc/campaign/work_list.h"
#include "stc/fuzz/fuzzer.h"
#include "stc/fuzz/shrink.h"
#include "stc/mutation/controller.h"
#include "stc/mutation/prune.h"
#include "stc/sandbox/codec.h"
#include "stc/sandbox/worker_pool.h"
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
    const bool shrink_kills = !options_.shrink_corpus_dir.empty();
    if (shrink_kills && options_.spec == nullptr) {
        throw ContractError(
            "CampaignOptions::shrink_corpus_dir requires CampaignOptions::spec "
            "(the shrinker needs the TFM and the value domains)");
    }
    if (options_.isolate && shrink_kills) {
        throw ContractError(
            "CampaignOptions::isolate cannot be combined with "
            "shrink_corpus_dir: the shrinker re-executes mutants inside the "
            "orchestrator process, defeating the isolation");
    }

    CampaignResult out;
    out.fingerprint = fingerprint(suite, mutants, probe_suite);
    out.stats.items = mutants.size();
    out.stats.workers = jobs;

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

    // Executors, shared read-only across workers (TestRunner::run is
    // const and keeps all per-run state on the stack).
    const driver::TestRunner runner(bindings_, engine.runner);
    driver::RunnerOptions probe_opts = engine.runner;
    probe_opts.observe_each_call = true;
    const driver::TestRunner probe_runner(bindings_, probe_opts);

    const mutation::MutationEngine::SuiteExecutor run_suite = [&runner, &suite] {
        return runner.run(suite);
    };
    mutation::MutationEngine::SuiteExecutor run_probe;
    if (probe_suite != nullptr) {
        run_probe = [&probe_runner, probe_suite] {
            return probe_runner.run(*probe_suite);
        };
    }

    TelemetrySink trace;
    if (!options_.telemetry_path.empty()) {
        // A resumable campaign appends: the telemetry of the generation
        // being resumed is evidence, not scratch.
        trace = TelemetrySink::to_file(options_.telemetry_path,
                                       options_.store_path.empty()
                                           ? TelemetrySink::OpenMode::Truncate
                                           : TelemetrySink::OpenMode::Append);
    }

    // Fast execution tier: engaged unless disabled or a manual oracle is
    // configured (the one detector that can kill a byte-identical
    // report, breaking the skip-unreached-pairs premise).  A lockstep
    // model only gates the memoization half — unreached cases still run
    // byte-identically, model comparisons included.
    const bool prune_engaged = options_.prune && !engine.manual_oracle;
    const bool model_engaged = engine.runner.model != nullptr &&
                               engine.runner.model->valid() &&
                               engine.oracle.use_model;
    const reflect::ClassBinding& binding = bindings_.at(suite.class_name);

    // Baseline golden runs, captured once, serially, before sharding
    // (the paper validates the original program's outputs up front).
    // With pruning engaged the SAME single run also records the
    // coverage-signature index — observation is free.
    oracle::GoldenRecord probe_golden;
    mutation::CoverageIndex coverage;
    mutation::CoverageIndex probe_coverage;
    {
        const auto phase_start = Clock::now();
        const obs::SpanScope span(options_.obs.tracer, "phase",
                                  "golden-baseline");
        if (prune_engaged) {
            mutation::CoveredRun covered =
                mutation::run_with_coverage(bindings_, engine.runner, suite);
            out.run.golden = oracle::GoldenRecord::from(covered.result);
            coverage = std::move(covered.index);
            if (probe_suite != nullptr) {
                mutation::CoveredRun probe_covered = mutation::run_with_coverage(
                    bindings_, probe_opts, *probe_suite);
                probe_golden = oracle::GoldenRecord::from(probe_covered.result);
                probe_coverage = std::move(probe_covered.index);
            }
        } else {
            out.run.golden = oracle::GoldenRecord::from(run_suite());
            if (run_probe) probe_golden = oracle::GoldenRecord::from(run_probe());
        }
        out.run.baseline_clean = out.run.golden.all_passed();
        options_.obs.metrics.observe_ms("campaign.phase.baseline_ms",
                                        ms_since(phase_start));
    }

    // Shared-prefix checkpoint ladders, built serially on the un-mutated
    // component.  Read-only afterwards: safe for concurrent workers, and
    // inherited copy-on-write by the forked sandbox children under
    // --isolate.
    mutation::PrunePlan plan;
    if (prune_engaged) {
        const auto phase_start = Clock::now();
        const obs::SpanScope span(options_.obs.tracer, "phase", "prune-plan");
        mutation::PrunePlanOptions plan_options;
        plan_options.memoize = !model_engaged;
        plan = mutation::build_prune_plan(runner, binding, suite,
                                          std::move(coverage), &probe_runner,
                                          probe_suite, std::move(probe_coverage),
                                          plan_options);
        options_.obs.metrics.observe_ms("campaign.phase.prune_plan_ms",
                                        ms_since(phase_start));
    }

    // Work items with derived seeds and content keys — identical to the
    // list the dispatch coordinator builds for this campaign
    // (work_list.h is the shared source of item identity).
    std::vector<CampaignItem> items;
    items.reserve(mutants.size());
    for (WorkItem& shared :
         build_work_list(options_.seed, out.fingerprint, suite, mutants)) {
        CampaignItem item;
        item.index = shared.index;
        item.mutant = &mutants[shared.index];
        item.item_seed = shared.item_seed;
        item.key = std::move(shared.key);
        items.push_back(std::move(item));
    }

    std::unique_ptr<ResultStore> store;
    if (!options_.store_path.empty()) {
        store = std::make_unique<ResultStore>(options_.store_path, out.fingerprint);
    }

    trace.emit(JsonObject()
                   .set("event", "campaign-start")
                   .set("campaign", out.fingerprint)
                   .set("class", suite.class_name)
                   .set("seed", options_.seed)
                   .set("jobs", static_cast<std::uint64_t>(jobs))
                   .set("mutants", static_cast<std::uint64_t>(mutants.size()))
                   .set("cases", static_cast<std::uint64_t>(suite.cases.size()))
                   .set("probe", probe_suite != nullptr)
                   .set("model", model_engaged)
                   .set("prune", prune_engaged)
                   .set("baseline_clean", out.run.baseline_clean));
    if (prune_engaged) {
        // Coverage-index record (docs/FORMATS.md §12): what the golden
        // run learned, and the digest a reader can correlate across the
        // with/without-prune telemetry of one campaign.
        std::size_t checkpoints = 0;
        for (const auto& cp : plan.case_plans) checkpoints += cp.checkpoints.size();
        for (const auto& cp : plan.probe_case_plans) {
            checkpoints += cp.checkpoints.size();
        }
        trace.emit(JsonObject()
                       .set("event", "coverage-index")
                       .set("campaign", out.fingerprint)
                       .set("version", mutation::kPruneIndexVersion)
                       .set("cases", static_cast<std::uint64_t>(
                                         plan.coverage.cases().size()))
                       .set("pairs", static_cast<std::uint64_t>(
                                         plan.coverage.pair_count()))
                       .set("probe_pairs", static_cast<std::uint64_t>(
                                               plan.probe_coverage.pair_count()))
                       .set("checkpoints",
                            static_cast<std::uint64_t>(checkpoints))
                       .set("digest", to_hex(plan.coverage.fingerprint())));
    }

    // Resume pass (single-threaded, before the pool starts): restore
    // finished items, queue the rest.
    const auto resume_start = Clock::now();
    obs::Tracer::Span resume_span =
        options_.obs.tracer.begin("phase", "resume-scan");
    std::vector<mutation::MutantOutcome> outcomes(mutants.size());
    std::vector<const CampaignItem*> pending;
    pending.reserve(items.size());
    for (const CampaignItem& item : items) {
        const ItemRecord* record =
            store == nullptr ? nullptr : store->find(item.key);
        if (record == nullptr) {
            pending.push_back(&item);
            continue;
        }
        mutation::MutantOutcome& outcome = outcomes[item.index];
        if (!restore_outcome(*record, &outcome)) {
            pending.push_back(&item);  // unreadable record: re-execute
            continue;
        }
        outcome.mutant = item.mutant;
        ++out.stats.resumed;
        trace.emit(JsonObject()
                       .set("event", "item-resumed")
                       .set("item", static_cast<std::uint64_t>(item.index))
                       .set("mutant", item.mutant->id())
                       .set("fate", record->fate)
                       .set("reason", record->reason)
                       .set("model_only", record->model_only));
    }

    options_.obs.tracer.end(std::move(resume_span));
    options_.obs.metrics.observe_ms("campaign.phase.resume_ms",
                                    ms_since(resume_start));

    // Killing-case shrinking (optional).  Everything here is a pure
    // function of (mutant, suite, spec, item_seed) — no RNG, no shared
    // mutable state — so the corpus is byte-identical at any --jobs.
    const reflect::ClassBinding* shrink_binding = nullptr;
    std::optional<tfm::Graph> shrink_graph;
    if (shrink_kills) {
        shrink_binding = &bindings_.at(suite.class_name);
        shrink_graph.emplace(options_.spec->build_tfm());
    }
    std::vector<unsigned char> shrunk_flags(mutants.size(), 0);

    const auto shrink_kill = [&](const CampaignItem& item) -> bool {
        const mutation::Mutant& mutant = *item.mutant;
        const auto run_mutated = [&](const driver::TestCase& tc) {
            const mutation::MutantActivation activation(mutant);
            return runner.run_case(*shrink_binding, tc);
        };
        // The shrink predicate preserves the oracle's classification, not
        // just the verdict: a candidate counts only if the mutated run
        // still differs from its own unmutated baseline for the same
        // reason (so OutputDiff kills shrink correctly even though both
        // runs Pass).
        const auto classify_candidate =
            [&](const driver::TestCase& tc) -> oracle::KillReason {
            const driver::TestResult baseline = runner.run_case(*shrink_binding, tc);
            oracle::GoldenEntry entry;
            entry.case_id = baseline.case_id;
            entry.verdict = baseline.verdict;
            entry.report = baseline.report;
            entry.message = baseline.message;
            return oracle::classify(entry, run_mutated(tc), engine.oracle,
                                    engine.manual_oracle);
        };

        // Locate the killing case: first kill in suite order.
        const driver::TestCase* killing = nullptr;
        oracle::KillReason reason = oracle::KillReason::None;
        for (const driver::TestCase& tc : suite.cases) {
            const oracle::GoldenEntry* golden_entry = out.run.golden.find(tc.id);
            if (golden_entry == nullptr) continue;
            reason = oracle::classify(*golden_entry, run_mutated(tc),
                                      engine.oracle, engine.manual_oracle);
            if (reason != oracle::KillReason::None) {
                killing = &tc;
                break;
            }
        }
        if (killing == nullptr) return false;  // no single case reproduces it

        fuzz::ShrinkOptions shrink_options;
        shrink_options.max_steps = options_.max_shrink_steps;
        shrink_options.obs = options_.obs;
        const oracle::KillReason target = reason;
        const fuzz::ShrinkResult shrunk = fuzz::shrink_case(
            *options_.spec, *shrink_graph, *killing,
            [&](const driver::TestCase& tc) {
                return classify_candidate(tc) == target;
            },
            shrink_options);

        fuzz::CorpusEntry entry;
        entry.suite.class_name = suite.class_name;
        entry.suite.model_nodes = suite.model_nodes;
        entry.suite.model_links = suite.model_links;
        entry.suite.cases.push_back(shrunk.minimized);
        const driver::TestResult observed = run_mutated(shrunk.minimized);
        entry.verdict = observed.verdict;
        entry.failed_method = observed.failed_method;
        entry.mutant_id = mutant.id();
        entry.kill_reason = oracle::to_string(target);
        const fuzz::PersistOutcome persisted =
            fuzz::persist_entry(options_.shrink_corpus_dir, entry,
                                options_.completions, run_mutated, item.item_seed);
        return persisted.reproducible;
    };

    // One kill-reason declaration per kind at campaign end, so `concat
    // stats` renders every detector as a row — zero-count included —
    // instead of silently dropping the kinds that never fired.
    const auto emit_kill_reason_rows = [&] {
        for (const oracle::KillReason reason : oracle::kAllKillReasons) {
            if (reason == oracle::KillReason::None) continue;
            trace.emit(JsonObject()
                           .set("event", "kill-reason")
                           .set("reason", oracle::to_string(reason))
                           .set("kills", static_cast<std::uint64_t>(
                                             out.run.kills_by(reason))));
        }
    };

    // Fast-tier accounting.  Atomic because thread-pool workers sum
    // their per-item stats concurrently; the isolate loop is
    // single-threaded but reuses the same counters.
    std::atomic<std::uint64_t> executed_pairs{0};
    std::atomic<std::uint64_t> pruned_pairs{0};
    std::atomic<std::uint64_t> decided_pairs{0};
    std::atomic<std::uint64_t> memoized_pairs{0};
    std::atomic<std::uint64_t> memoized_calls{0};
    const auto add_pair_stats = [&](const mutation::PruneStats& s) {
        executed_pairs.fetch_add(s.executed_pairs, std::memory_order_relaxed);
        pruned_pairs.fetch_add(s.pruned_pairs, std::memory_order_relaxed);
        decided_pairs.fetch_add(s.decided_pairs, std::memory_order_relaxed);
        memoized_pairs.fetch_add(s.memoized_pairs, std::memory_order_relaxed);
        memoized_calls.fetch_add(s.memoized_calls, std::memory_order_relaxed);
    };
    const auto fill_prune_stats = [&] {
        out.stats.pruned = prune_engaged;
        out.stats.executed_pairs = executed_pairs.load();
        out.stats.pruned_pairs = pruned_pairs.load();
        out.stats.decided_pairs = decided_pairs.load();
        out.stats.memoized_pairs = memoized_pairs.load();
        out.stats.memoized_calls = memoized_calls.load();
        if (prune_engaged) {
            options_.obs.metrics.add("campaign.executed_pairs",
                                     out.stats.executed_pairs);
            options_.obs.metrics.add("campaign.pruned_pairs",
                                     out.stats.pruned_pairs);
            options_.obs.metrics.add("campaign.decided_pairs",
                                     out.stats.decided_pairs);
            options_.obs.metrics.add("campaign.memoized_pairs",
                                     out.stats.memoized_pairs);
            options_.obs.metrics.add("campaign.memoized_calls",
                                     out.stats.memoized_calls);
        }
    };
    const driver::TestRunner* maybe_probe_runner =
        probe_suite != nullptr ? &probe_runner : nullptr;

    // Parallel phase: each pending item evaluates on some worker and
    // writes only its own outcome slot.
    const auto t0 = Clock::now();
    if (options_.isolate) {
        // Isolated phase: forked sandbox workers driven by a
        // single-threaded event loop (forking from the multithreaded
        // pool would clone locks held by other threads).  The request
        // payload is a decimal index into `pending`; the reply is the
        // encoded outcome.  A worker that crashes, hangs, or trips a
        // limit yields no reply — the decoded termination becomes the
        // item's outcome (Killed / Crash, MutantOutcome::sandbox set)
        // and the worker is respawned for the next item.
        const obs::SpanScope items_span(options_.obs.tracer, "phase",
                                        "item-execution");
        std::vector<std::string> payloads;
        payloads.reserve(pending.size());
        for (std::size_t i = 0; i < pending.size(); ++i) {
            payloads.push_back(std::to_string(i));
        }

        const sandbox::Job job = [&](const std::string& payload) {
            const std::size_t slot = std::stoull(payload);
            if (prune_engaged) {
                // The plan was built pre-fork: the child inherits the
                // checkpoint prototypes copy-on-write and never writes
                // them (clones only), so the pages stay shared.
                mutation::PruneStats item_stats;
                const mutation::MutantOutcome outcome =
                    mutation::evaluate_mutant_pruned(
                        *pending[slot]->mutant, runner, binding, suite,
                        out.run.golden, maybe_probe_runner, probe_suite,
                        probe_golden, plan, engine, &item_stats);
                return sandbox::encode_outcome(outcome, &item_stats);
            }
            return sandbox::encode_outcome(mutation::evaluate_mutant(
                *pending[slot]->mutant, run_suite, out.run.golden, run_probe,
                probe_golden, engine));
        };

        sandbox::PoolOptions pool_options;
        pool_options.workers = jobs;
        pool_options.limits = options_.sandbox;
        pool_options.obs = options_.obs;
        pool_options.on_event = [&](const sandbox::WorkerEvent& event) {
            JsonObject o;
            o.set("event", sandbox::to_string(event.kind))
                .set("worker", static_cast<std::uint64_t>(event.worker))
                .set("pid", event.pid);
            if (!event.detail.empty()) o.set("detail", event.detail);
            trace.emit(o);
        };
        pool_options.on_dispatch = [&](std::size_t slot, std::size_t worker) {
            const CampaignItem& item = *pending[slot];
            trace.emit(JsonObject()
                           .set("event", "item-start")
                           .set("item", static_cast<std::uint64_t>(item.index))
                           .set("mutant", item.mutant->id())
                           .set("worker", static_cast<std::uint64_t>(worker)));
        };

        sandbox::WorkerPool pool(job, std::move(pool_options));
        pool.run(payloads, [&](std::size_t slot, sandbox::TaskResult result) {
            const CampaignItem& item = *pending[slot];
            mutation::MutantOutcome outcome;
            mutation::PruneStats item_stats;
            if (result.ok()) {
                const auto decoded = sandbox::decode_outcome(result.payload);
                outcome = decoded ? *decoded
                                  : sandbox::outcome_from_termination(
                                        "worker-exit:-3");  // garbled reply
                item_stats = sandbox::decode_outcome_stats(result.payload);
                add_pair_stats(item_stats);
            } else {
                outcome = sandbox::outcome_from_termination(result.outcome());
            }
            outcome.mutant = item.mutant;
            outcomes[item.index] = outcome;
            // The children's mutation.* instruments die with them;
            // mirror the fate counter and evaluation latency here.
            options_.obs.metrics.add(std::string("mutation.fate.") +
                                     mutation::to_string(outcome.fate));
            options_.obs.metrics.observe_ms("mutation.eval_ms",
                                            result.wall_ms);

            JsonObject finish;
            finish.set("event", "item-finish")
                .set("item", static_cast<std::uint64_t>(item.index))
                .set("mutant", item.mutant->id())
                .set("worker", static_cast<std::uint64_t>(result.worker))
                .set("fate", mutation::to_string(outcome.fate))
                .set("reason", oracle::to_string(outcome.reason))
                .set("hit", outcome.hit_by_suite)
                .set("probe_kill", outcome.killed_by_probe)
                .set("model_only", outcome.model_only)
                .set("shrunk", false)
                .set("item_seed", item.item_seed)
                .set("wall_ms", result.wall_ms);
            if (prune_engaged) {
                finish.set("executed_pairs", item_stats.executed_pairs)
                    .set("pruned_pairs", item_stats.pruned_pairs)
                    .set("decided_pairs", item_stats.decided_pairs)
                    .set("memoized_pairs", item_stats.memoized_pairs);
            }
            if (!outcome.sandbox.empty()) {
                finish.set("sandbox", outcome.sandbox);
            }
            trace.emit(finish);

            if (store != nullptr) {
                ItemRecord record;
                record.key = item.key;
                record.mutant_id = item.mutant->id();
                record.item_index = item.index;
                record.fate = mutation::to_string(outcome.fate);
                record.reason = oracle::to_string(outcome.reason);
                record.hit_by_suite = outcome.hit_by_suite;
                record.killed_by_probe = outcome.killed_by_probe;
                record.model_only = outcome.model_only;
                record.item_seed = item.item_seed;
                record.wall_ms = result.wall_ms;
                record.sandbox = outcome.sandbox;
                store->append(record);
            }
        });
        out.stats.respawns = pool.stats().respawned;
        out.stats.executed = pending.size();
        fill_prune_stats();
        out.stats.wall_ms = ms_since(t0);
        options_.obs.metrics.observe_ms("campaign.phase.items_ms",
                                        out.stats.wall_ms);
        options_.obs.metrics.add("campaign.items", out.stats.items);
        options_.obs.metrics.add("campaign.executed", out.stats.executed);
        options_.obs.metrics.add("campaign.resumed", out.stats.resumed);
        options_.obs.metrics.add("campaign.respawns", out.stats.respawns);

        out.run.outcomes = std::move(outcomes);

        emit_kill_reason_rows();
        trace.emit(JsonObject()
                       .set("event", "campaign-end")
                       .set("campaign", out.fingerprint)
                       .set("items", static_cast<std::uint64_t>(out.stats.items))
                       .set("executed",
                            static_cast<std::uint64_t>(out.stats.executed))
                       .set("resumed",
                            static_cast<std::uint64_t>(out.stats.resumed))
                       .set("killed", static_cast<std::uint64_t>(out.run.killed()))
                       .set("killed_model_only",
                            static_cast<std::uint64_t>(out.run.kills_model_only()))
                       .set("equivalent",
                            static_cast<std::uint64_t>(out.run.equivalent()))
                       .set("not_covered",
                            static_cast<std::uint64_t>(out.run.not_covered()))
                       .set("score", out.run.score())
                       .set("workers",
                            static_cast<std::uint64_t>(out.stats.workers))
                       .set("respawns",
                            static_cast<std::uint64_t>(out.stats.respawns))
                       .set("pruned", out.stats.pruned)
                       .set("executed_pairs", out.stats.executed_pairs)
                       .set("pruned_pairs", out.stats.pruned_pairs)
                       .set("decided_pairs", out.stats.decided_pairs)
                       .set("memoized_pairs", out.stats.memoized_pairs)
                       .set("memoized_calls", out.stats.memoized_calls)
                       .set("wall_ms", out.stats.wall_ms));
        return out;
    }
    std::vector<WorkStealingPool::Task> tasks;
    tasks.reserve(pending.size());
    for (const CampaignItem* item : pending) {
        tasks.push_back([&, item](const WorkerContext& context) {
            const auto item_start = Clock::now();
            trace.emit(
                JsonObject()
                    .set("event", "item-start")
                    .set("item", static_cast<std::uint64_t>(item->index))
                    .set("mutant", item->mutant->id())
                    .set("worker", static_cast<std::uint64_t>(context.worker))
                    .set("queue", static_cast<std::uint64_t>(context.queue_depth))
                    .set("stolen", context.stolen));

            mutation::PruneStats item_stats;
            const mutation::MutantOutcome outcome =
                prune_engaged
                    ? mutation::evaluate_mutant_pruned(
                          *item->mutant, runner, binding, suite, out.run.golden,
                          maybe_probe_runner, probe_suite, probe_golden, plan,
                          engine, &item_stats)
                    : mutation::evaluate_mutant(*item->mutant, run_suite,
                                                out.run.golden, run_probe,
                                                probe_golden, engine);
            if (prune_engaged) add_pair_stats(item_stats);
            outcomes[item->index] = outcome;
            if (shrink_kills && outcome.fate == mutation::MutantFate::Killed) {
                shrunk_flags[item->index] = shrink_kill(*item) ? 1 : 0;
            }
            const double wall = ms_since(item_start);

            JsonObject finish;
            finish.set("event", "item-finish")
                .set("item", static_cast<std::uint64_t>(item->index))
                .set("mutant", item->mutant->id())
                .set("worker", static_cast<std::uint64_t>(context.worker))
                .set("fate", mutation::to_string(outcome.fate))
                .set("reason", oracle::to_string(outcome.reason))
                .set("hit", outcome.hit_by_suite)
                .set("probe_kill", outcome.killed_by_probe)
                .set("model_only", outcome.model_only)
                .set("shrunk", shrunk_flags[item->index] != 0)
                .set("item_seed", item->item_seed)
                .set("wall_ms", wall);
            if (prune_engaged) {
                finish.set("executed_pairs", item_stats.executed_pairs)
                    .set("pruned_pairs", item_stats.pruned_pairs)
                    .set("decided_pairs", item_stats.decided_pairs)
                    .set("memoized_pairs", item_stats.memoized_pairs);
            }
            trace.emit(finish);

            if (store != nullptr) {
                ItemRecord record;
                record.key = item->key;
                record.mutant_id = item->mutant->id();
                record.item_index = item->index;
                record.fate = mutation::to_string(outcome.fate);
                record.reason = oracle::to_string(outcome.reason);
                record.hit_by_suite = outcome.hit_by_suite;
                record.killed_by_probe = outcome.killed_by_probe;
                record.model_only = outcome.model_only;
                record.item_seed = item->item_seed;
                record.wall_ms = wall;
                store->append(record);
            }
        });
    }

    {
        const obs::SpanScope items_span(options_.obs.tracer, "phase",
                                        "item-execution");
        const WorkStealingPool pool(jobs);
        out.stats.steals = pool.run(std::move(tasks));
    }
    out.stats.executed = pending.size();
    for (const unsigned char flag : shrunk_flags) out.stats.shrunk += flag;
    fill_prune_stats();
    out.stats.wall_ms = ms_since(t0);
    options_.obs.metrics.observe_ms("campaign.phase.items_ms",
                                    out.stats.wall_ms);
    options_.obs.metrics.add("campaign.items", out.stats.items);
    options_.obs.metrics.add("campaign.executed", out.stats.executed);
    options_.obs.metrics.add("campaign.resumed", out.stats.resumed);
    options_.obs.metrics.add("campaign.steals", out.stats.steals);
    options_.obs.metrics.add("campaign.shrunk", out.stats.shrunk);

    out.run.outcomes = std::move(outcomes);

    emit_kill_reason_rows();
    trace.emit(JsonObject()
                   .set("event", "campaign-end")
                   .set("campaign", out.fingerprint)
                   .set("items", static_cast<std::uint64_t>(out.stats.items))
                   .set("executed", static_cast<std::uint64_t>(out.stats.executed))
                   .set("resumed", static_cast<std::uint64_t>(out.stats.resumed))
                   .set("killed", static_cast<std::uint64_t>(out.run.killed()))
                   .set("killed_model_only",
                        static_cast<std::uint64_t>(out.run.kills_model_only()))
                   .set("equivalent",
                        static_cast<std::uint64_t>(out.run.equivalent()))
                   .set("not_covered",
                        static_cast<std::uint64_t>(out.run.not_covered()))
                   .set("score", out.run.score())
                   .set("workers", static_cast<std::uint64_t>(out.stats.workers))
                   .set("steals", out.stats.steals)
                   .set("pruned", out.stats.pruned)
                   .set("executed_pairs", out.stats.executed_pairs)
                   .set("pruned_pairs", out.stats.pruned_pairs)
                   .set("decided_pairs", out.stats.decided_pairs)
                   .set("memoized_pairs", out.stats.memoized_pairs)
                   .set("memoized_calls", out.stats.memoized_calls)
                   .set("wall_ms", out.stats.wall_ms));

    return out;
}

}  // namespace stc::campaign

// Fast-tier tests: the coverage-signature index, checkpoint
// memoization, and — the load-bearing contract — the differential
// harness proving that pruned campaigns produce byte-identical fates,
// reports and stored JSONL records to unpruned ones, at every jobs
// count and under --isolate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "stc/campaign/scheduler.h"
#include "stc/core/self_testable.h"
#include "stc/mfc/component.h"
#include "stc/model/model.h"
#include "stc/mutation/coverage.h"
#include "stc/mutation/engine.h"
#include "stc/mutation/prune.h"
#include "stc/mutation/report.h"
#include "stc/obs/json.h"
#include "stc/sandbox/executor.h"
#include "stc/support/error.h"
#include "test_component.h"

namespace stc::mutation {
namespace {

/// Counter binding plus the behavioural-copy capability the memoization
/// half needs (the stock test binding registers none, which must keep
/// pruning working with memoization silently off).
reflect::ClassBinding counter_binding_with_cloner() {
    reflect::ClassBinding binding = stc::testing::counter_binding();
    binding.set_cloner([](const void* object) -> void* {
        return new stc::testing::Counter(
            *static_cast<const stc::testing::Counter*>(object));
    });
    return binding;
}

bool calls_inc(const driver::TestCase& tc) {
    return std::any_of(tc.calls.begin(), tc.calls.end(),
                       [](const driver::MethodCall& call) {
                           return call.method_name == "Inc";
                       });
}

class PruneTest : public ::testing::Test {
protected:
    PruneTest() : spec_(stc::testing::counter_spec()) {
        registry_.add(counter_binding_with_cloner());
        suite_ = driver::DriverGenerator(spec_).generate();
        mutants_ = enumerate_mutants(stc::testing::counter_descriptors(),
                                     "Counter");
    }

    [[nodiscard]] const reflect::ClassBinding& binding() const {
        return registry_.at("Counter");
    }

    tspec::ComponentSpec spec_;
    reflect::Registry registry_;
    driver::TestSuite suite_;
    std::vector<Mutant> mutants_;
};

// ------------------------------------------------------- coverage index

TEST_F(PruneTest, GoldenRunRecordsFirstHitPerSite) {
    const CoveredRun covered =
        run_with_coverage(registry_, driver::RunnerOptions{}, suite_);
    ASSERT_EQ(covered.index.cases().size(), suite_.size());
    ASSERT_FALSE(mutants_.empty());
    const Mutant& inc_mutant = mutants_.front();  // every mutant is in Inc

    for (const driver::TestCase& tc : suite_.cases) {
        const auto* coverage = covered.index.find(tc.id);
        ASSERT_NE(coverage, nullptr) << tc.id;
        if (!calls_inc(tc)) continue;
        // CaseObserver convention: calls[0] is the constructor (index
        // 0 covers construction + entry state), so the first body call
        // that consults a site IS its position in `calls`.
        std::size_t first_inc = 0;
        for (std::size_t i = 1; i < tc.calls.size(); ++i) {
            if (tc.calls[i].method_name == "Inc") {
                first_inc = i;
                break;
            }
        }
        ASSERT_GT(first_inc, 0u) << tc.id;
        EXPECT_TRUE(covered.index.covers(tc.id, inc_mutant)) << tc.id;
        EXPECT_EQ(covered.index.first_hit(tc.id, inc_mutant), first_inc)
            << tc.id;
    }
}

TEST_F(PruneTest, CaseReachingNoSiteIsIndexedEmpty) {
    const CoveredRun covered =
        run_with_coverage(registry_, driver::RunnerOptions{}, suite_);
    bool saw_siteless_case = false;
    for (const driver::TestCase& tc : suite_.cases) {
        if (calls_inc(tc)) continue;
        saw_siteless_case = true;
        const auto* coverage = covered.index.find(tc.id);
        ASSERT_NE(coverage, nullptr) << tc.id;
        EXPECT_TRUE(coverage->first_hit.empty()) << tc.id;
        for (const Mutant& m : mutants_) {
            EXPECT_FALSE(covered.index.covers(tc.id, m)) << tc.id;
            EXPECT_FALSE(covered.index.first_hit(tc.id, m).has_value());
        }
    }
    // The Counter TFM has Get-only transactions; if this stops holding
    // the test must move to a suite that still has an uncovering case.
    ASSERT_TRUE(saw_siteless_case);
}

TEST_F(PruneTest, IndexFingerprintTracksSuiteAndCoverage) {
    const CoveredRun a =
        run_with_coverage(registry_, driver::RunnerOptions{}, suite_);
    const CoveredRun b =
        run_with_coverage(registry_, driver::RunnerOptions{}, suite_);
    EXPECT_EQ(a.index.fingerprint(), b.index.fingerprint());
    EXPECT_EQ(a.index.pair_count(), b.index.pair_count());

    driver::TestSuite shorter = suite_;
    ASSERT_GT(shorter.cases.size(), 1u);
    shorter.cases.pop_back();
    const CoveredRun c =
        run_with_coverage(registry_, driver::RunnerOptions{}, shorter);
    EXPECT_NE(a.index.fingerprint(), c.index.fingerprint());
}

TEST_F(PruneTest, NestedCoverageScopeThrows) {
    CoverageIndex index;
    CoverageRecorder recorder(index);
    const CoverageScope outer(recorder);
    EXPECT_THROW(CoverageScope inner(recorder), ContractError);
}

// ------------------------------------------------ pruned single mutants

TEST_F(PruneTest, UnreachedMutantIsNotCoveredWithoutExecuting) {
    // Sub-suite of the cases that never call Inc: every mutant's site is
    // provably unreached, so the pruned evaluator must classify
    // NotCovered from the index alone, executing zero pairs.
    driver::TestSuite uncovering;
    uncovering.class_name = suite_.class_name;
    uncovering.seed = suite_.seed;
    for (const driver::TestCase& tc : suite_.cases) {
        if (!calls_inc(tc)) uncovering.cases.push_back(tc);
    }
    ASSERT_FALSE(uncovering.cases.empty());

    const driver::TestRunner runner(registry_, {});
    const CoveredRun covered =
        run_with_coverage(registry_, driver::RunnerOptions{}, uncovering);
    const auto golden = oracle::GoldenRecord::from(covered.result);
    const PrunePlan plan =
        build_prune_plan(runner, binding(), uncovering, covered.index,
                         nullptr, nullptr, {});
    const EngineOptions options;

    for (const Mutant& mutant : mutants_) {
        PruneStats stats;
        const MutantOutcome pruned = evaluate_mutant_pruned(
            mutant, runner, binding(), uncovering, golden, nullptr, nullptr,
            {}, plan, options, &stats);
        EXPECT_EQ(pruned.fate, MutantFate::NotCovered) << mutant.id();
        EXPECT_FALSE(pruned.hit_by_suite);
        EXPECT_EQ(stats.executed_pairs, 0u);
        EXPECT_EQ(stats.pruned_pairs, uncovering.cases.size());

        const MutantOutcome full = evaluate_mutant(
            mutant,
            [&] { return runner.run(uncovering); }, golden, {}, {}, options);
        EXPECT_EQ(full.fate, pruned.fate) << mutant.id();
        EXPECT_EQ(full.reason, pruned.reason) << mutant.id();
        EXPECT_EQ(full.hit_by_suite, pruned.hit_by_suite) << mutant.id();
    }
}

TEST_F(PruneTest, MemoizationResumesPastTheUninstrumentedPrefix) {
    // Hand-built case whose first site consult happens at body call 4:
    // the plan must checkpoint there, and the pruned evaluator must skip
    // the three un-mutated calls before it — fate-identically.
    auto call = [](const char* id, const char* name) {
        driver::MethodCall c;
        c.method_id = id;
        c.method_name = name;
        return c;
    };
    driver::TestCase tc;
    tc.id = "TCmemo";
    tc.transaction_text = "hand-built";
    driver::MethodCall ctor = call("m1", "Counter");
    ctor.is_constructor = true;
    tc.calls = {ctor,
                call("m7", "Get"),
                call("m6", "Reset"),
                call("m7", "Get"),
                call("m4", "Inc"),
                call("m7", "Get")};
    driver::TestSuite suite;
    suite.class_name = "Counter";
    suite.cases = {tc};

    const driver::TestRunner runner(registry_, {});
    const CoveredRun covered =
        run_with_coverage(registry_, driver::RunnerOptions{}, suite);
    ASSERT_EQ(covered.index.first_hit(tc.id, mutants_.front()), 4u);
    const auto golden = oracle::GoldenRecord::from(covered.result);
    const PrunePlan plan = build_prune_plan(runner, binding(), suite,
                                            covered.index, nullptr, nullptr,
                                            {});
    ASSERT_EQ(plan.case_plans.size(), 1u);
    ASSERT_FALSE(plan.case_plans[0].checkpoints.empty());
    EXPECT_EQ(plan.case_plans[0].checkpoints.back().resume_call, 4u);

    const EngineOptions options;
    for (const Mutant& mutant : mutants_) {
        PruneStats stats;
        const MutantOutcome pruned = evaluate_mutant_pruned(
            mutant, runner, binding(), suite, golden, nullptr, nullptr, {},
            plan, options, &stats);
        EXPECT_EQ(stats.executed_pairs, 1u) << mutant.id();
        EXPECT_EQ(stats.memoized_pairs, 1u) << mutant.id();
        EXPECT_EQ(stats.memoized_calls, 3u) << mutant.id();

        const MutantOutcome full = evaluate_mutant(
            mutant, [&] { return runner.run(suite); }, golden, {}, {},
            options);
        EXPECT_EQ(full.fate, pruned.fate) << mutant.id();
        EXPECT_EQ(full.reason, pruned.reason) << mutant.id();
        EXPECT_EQ(full.hit_by_suite, pruned.hit_by_suite) << mutant.id();
    }
}

TEST_F(PruneTest, PlanForAnotherSuiteIsRejected) {
    // Site postings address cases by suite position, so evaluating
    // against a suite the plan was not built for must fail loudly
    // instead of indexing out of range.
    const driver::TestRunner runner(registry_, {});
    const CoveredRun covered =
        run_with_coverage(registry_, driver::RunnerOptions{}, suite_);
    const auto golden = oracle::GoldenRecord::from(covered.result);
    const PrunePlan plan = build_prune_plan(runner, binding(), suite_,
                                            covered.index, nullptr, nullptr,
                                            {});
    driver::TestSuite shorter = suite_;
    ASSERT_GT(shorter.cases.size(), 1u);
    shorter.cases.pop_back();
    EXPECT_THROW(
        (void)evaluate_mutant_pruned(mutants_.front(), runner, binding(),
                                     shorter, golden, nullptr, nullptr, {},
                                     plan, EngineOptions{}),
        ContractError);
}

TEST_F(PruneTest, ManualOracleRejectsPrunedEvaluation) {
    const driver::TestRunner runner(registry_, {});
    const CoveredRun covered =
        run_with_coverage(registry_, driver::RunnerOptions{}, suite_);
    const auto golden = oracle::GoldenRecord::from(covered.result);
    const PrunePlan plan = build_prune_plan(runner, binding(), suite_,
                                            covered.index, nullptr, nullptr,
                                            {});
    EngineOptions options;
    options.manual_oracle = [](const std::string&, const std::string&) {
        return true;
    };
    EXPECT_THROW(
        (void)evaluate_mutant_pruned(mutants_.front(), runner, binding(),
                                     suite_, golden, nullptr, nullptr, {},
                                     plan, options),
        ContractError);
}

// --------------------------------------------- campaign-level contracts

using StoredFates =
    std::map<std::string, std::tuple<std::string, std::string, bool, bool>>;

/// fate/reason/hit/probe_kill per mutant id, parsed back out of a
/// result-store JSONL file (header and malformed lines skipped).
StoredFates read_store_fates(const std::string& path) {
    StoredFates fates;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        const auto object = obs::JsonObject::parse(line);
        if (!object) continue;
        const auto record = campaign::ItemRecord::from_json(*object);
        if (!record) continue;
        fates[record->mutant_id] = {record->fate, record->reason,
                                    record->hit_by_suite,
                                    record->killed_by_probe};
    }
    return fates;
}

void expect_same_outcomes(const MutationRun& a, const MutationRun& b) {
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
        EXPECT_EQ(a.outcomes[i].mutant, b.outcomes[i].mutant) << i;
        EXPECT_EQ(a.outcomes[i].fate, b.outcomes[i].fate) << i;
        EXPECT_EQ(a.outcomes[i].reason, b.outcomes[i].reason) << i;
        EXPECT_EQ(a.outcomes[i].hit_by_suite, b.outcomes[i].hit_by_suite) << i;
        EXPECT_EQ(a.outcomes[i].killed_by_probe, b.outcomes[i].killed_by_probe)
            << i;
    }
}

std::string render(const campaign::CampaignResult& result,
                   const driver::TestSuite& suite) {
    std::ostringstream os;
    render_campaign_report(os, result.run, suite.class_name, suite.size(),
                           suite.seed);
    return os.str();
}

/// The differential harness: one generated Counter campaign per seed,
/// executed unpruned (the reference) and pruned at --jobs 1/2/4 and
/// under --isolate; fates, rendered reports, scores and stored JSONL
/// records must be byte-identical throughout.
class PruneDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PruneDifferential, PrunedFatesReportsAndStoresMatchUnpruned) {
    const std::uint64_t seed = GetParam();
    const tspec::ComponentSpec spec = stc::testing::counter_spec();
    reflect::Registry registry;
    registry.add(counter_binding_with_cloner());

    driver::GeneratorOptions generator;
    generator.seed = seed;
    generator.cases_per_transaction = 2;
    const driver::TestSuite suite =
        driver::DriverGenerator(spec, generator).generate();
    driver::GeneratorOptions probe_options = generator;
    probe_options.seed = seed ^ 0x9e3779b97f4a7c15ULL;
    probe_options.cases_per_transaction = 3;
    const driver::TestSuite probe =
        driver::DriverGenerator(spec, probe_options).generate();
    const auto mutants =
        enumerate_mutants(stc::testing::counter_descriptors(), "Counter");

    auto run_campaign = [&](bool prune, std::size_t jobs, bool isolate,
                            const std::string& store_path) {
        std::remove(store_path.c_str());  // fresh run, not a resume
        campaign::CampaignOptions options;
        options.seed = seed;
        options.jobs = jobs;
        options.prune = prune;
        if (isolate) options.executor = std::make_shared<sandbox::SandboxExecutor>();
        options.store_path = store_path;
        const campaign::CampaignScheduler scheduler(registry, options);
        return scheduler.run(suite, mutants, &probe);
    };

    const std::string dir = ::testing::TempDir();
    const std::string tag = std::to_string(seed);
    const std::string baseline_store = dir + "prune_base_" + tag + ".jsonl";
    const campaign::CampaignResult baseline =
        run_campaign(false, 1, false, baseline_store);
    EXPECT_FALSE(baseline.stats.pruned);

    for (const std::size_t jobs : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}}) {
        const std::string store =
            dir + "prune_j" + std::to_string(jobs) + "_" + tag + ".jsonl";
        const campaign::CampaignResult pruned =
            run_campaign(true, jobs, false, store);
        EXPECT_TRUE(pruned.stats.pruned);
        expect_same_outcomes(baseline.run, pruned.run);
        EXPECT_EQ(render(baseline, suite), render(pruned, suite));
        EXPECT_DOUBLE_EQ(baseline.run.score(), pruned.run.score());
        EXPECT_DOUBLE_EQ(baseline.run.covered_score(),
                         pruned.run.covered_score());
        EXPECT_EQ(read_store_fates(baseline_store), read_store_fates(store));
        // The tier must actually avoid work, not just agree.
        EXPECT_GT(pruned.stats.pruned_pairs, 0u);
        EXPECT_LT(pruned.stats.executed_pairs,
                  mutants.size() * (suite.size() + probe.size()));
    }

    const std::string isolate_store = dir + "prune_iso_" + tag + ".jsonl";
    const campaign::CampaignResult isolated =
        run_campaign(true, 1, true, isolate_store);
    EXPECT_TRUE(isolated.stats.pruned);
    expect_same_outcomes(baseline.run, isolated.run);
    EXPECT_EQ(render(baseline, suite), render(isolated, suite));
    EXPECT_EQ(read_store_fates(baseline_store),
              read_store_fates(isolate_store));
    EXPECT_GT(isolated.stats.pruned_pairs, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PruneDifferential,
                         ::testing::Values(11, 22, 33, 44, 55));

TEST_F(PruneTest, FingerprintSeparatesPrunedFromUnprunedStores) {
    const driver::TestSuite probe;  // unused: fingerprint only
    campaign::CampaignOptions pruned_options;
    pruned_options.prune = true;
    campaign::CampaignOptions unpruned_options;
    unpruned_options.prune = false;
    const campaign::CampaignScheduler pruned(registry_, pruned_options);
    const campaign::CampaignScheduler unpruned(registry_, unpruned_options);
    EXPECT_NE(pruned.fingerprint(suite_, mutants_, nullptr),
              unpruned.fingerprint(suite_, mutants_, nullptr));

    // A manual oracle disengages the tier, so the fingerprint must fall
    // back to the unpruned identity (same rule the scheduler applies
    // when deciding whether to prune at all).
    campaign::CampaignOptions manual_options;
    manual_options.prune = true;
    manual_options.engine.manual_oracle =
        [](const std::string&, const std::string&) { return true; };
    campaign::CampaignOptions manual_unpruned = manual_options;
    manual_unpruned.prune = false;
    const campaign::CampaignScheduler a(registry_, manual_options);
    const campaign::CampaignScheduler b(registry_, manual_unpruned);
    EXPECT_EQ(a.fingerprint(suite_, mutants_, nullptr),
              b.fingerprint(suite_, mutants_, nullptr));
}

TEST_F(PruneTest, PrunedStoreIsNotResumedUnpruned) {
    const std::string store =
        ::testing::TempDir() + "prune_invalidation.jsonl";
    std::remove(store.c_str());
    campaign::CampaignOptions options;
    options.prune = true;
    options.store_path = store;
    const campaign::CampaignScheduler pruned(registry_, options);
    const auto first = pruned.run(suite_, mutants_, nullptr);
    EXPECT_EQ(first.stats.resumed, 0u);
    EXPECT_EQ(first.stats.executed, mutants_.size());

    // Same tier, same store: everything resumes.
    const auto again = pruned.run(suite_, mutants_, nullptr);
    EXPECT_EQ(again.stats.resumed, mutants_.size());
    EXPECT_EQ(again.stats.executed, 0u);

    // Pruning off: different fingerprint, so the store is invalidated
    // and rebuilt from scratch — fates produced under a different
    // execution tier never resume (mirroring the --model rule).
    options.prune = false;
    const campaign::CampaignScheduler unpruned(registry_, options);
    const auto second = unpruned.run(suite_, mutants_, nullptr);
    EXPECT_EQ(second.stats.resumed, 0u);
    EXPECT_EQ(second.stats.executed, mutants_.size());

    // And back on: the unpruned store is equally foreign to the pruned
    // tier — invalidated again, every item re-executed.
    options.prune = true;
    const campaign::CampaignScheduler repruned(registry_, options);
    const auto third = repruned.run(suite_, mutants_, nullptr);
    EXPECT_EQ(third.stats.resumed, 0u);
    EXPECT_EQ(third.stats.executed, mutants_.size());
}

// The real component: CObList has pointer-valued arguments (checkpoint
// signatures must be identity-exact) and a mixed instrumented /
// uninstrumented method population — the closest in-tree stand-in for
// the paper's production component.
TEST(PruneCObList, PrunedCampaignMatchesUnprunedOnTheRealComponent) {
    mfc::ElementPool pool;
    core::SelfTestableComponent component(mfc::coblist_spec(),
                                          mfc::coblist_binding());
    const driver::CompletionRegistry completions = mfc::make_completions(pool);
    component.set_completions(completions);
    driver::GeneratorOptions generator;
    generator.seed = 7;
    const driver::TestSuite suite = component.generate_tests(generator);
    const auto mutants =
        enumerate_mutants(mfc::descriptors(), suite.class_name);
    ASSERT_FALSE(mutants.empty());

    auto run_campaign = [&](bool prune, std::size_t jobs) {
        campaign::CampaignOptions options;
        options.seed = generator.seed;
        options.prune = prune;
        options.jobs = jobs;
        const campaign::CampaignScheduler scheduler(component.registry(),
                                                    options);
        return scheduler.run(suite, mutants, nullptr);
    };

    const campaign::CampaignResult baseline = run_campaign(false, 2);
    const campaign::CampaignResult pruned = run_campaign(true, 2);
    expect_same_outcomes(baseline.run, pruned.run);
    EXPECT_EQ(render(baseline, suite), render(pruned, suite));
    EXPECT_TRUE(pruned.stats.pruned);
    // Strictly fewer executed pairs, and full accounting: every
    // (mutant, case) pair is executed, pruned as unreached, or skipped
    // after a crash decided the verdict — CObList has crash kills, so
    // some pairs must be.
    const std::uint64_t total =
        static_cast<std::uint64_t>(mutants.size()) * suite.size();
    EXPECT_EQ(pruned.stats.executed_pairs + pruned.stats.pruned_pairs +
                  pruned.stats.decided_pairs,
              total);
    EXPECT_LT(pruned.stats.executed_pairs, total);
    EXPECT_GT(pruned.stats.pruned_pairs, 0u);
    EXPECT_GT(pruned.stats.decided_pairs, 0u);
}

// --------------------------------------------- decide-and-stop evaluator

/// Every `stride`-th case of `suite`: keeps the transaction mix of the
/// generated suite at a size the exhaustive reference can afford per
/// mutant.
driver::TestSuite every_nth(const driver::TestSuite& suite, std::size_t stride) {
    driver::TestSuite out = suite;
    out.cases.clear();
    for (std::size_t i = 0; i < suite.cases.size(); i += stride) {
        out.cases.push_back(suite.cases[i]);
    }
    return out;
}

/// The pruned evaluator stops a suite once a crash decides the verdict
/// and a probe at its first kill.  Per mutant it must still agree with
/// the exhaustive evaluate_mutant on everything an outcome carries, on
/// both real subjects, with and without a lockstep model, and with a
/// probe suite attached.
class PruneEarlyExit
    : public ::testing::TestWithParam<std::tuple<const char*, bool>> {};

TEST_P(PruneEarlyExit, StoppedEvaluationMatchesExhaustivePerMutant) {
    const std::string class_name = std::get<0>(GetParam());
    const bool with_model = std::get<1>(GetParam());
    const bool sortable = class_name == "CSortableObList";

    mfc::ElementPool pool;
    core::SelfTestableComponent component(
        sortable ? mfc::sortable_spec() : mfc::coblist_spec(),
        sortable ? mfc::sortable_binding() : mfc::coblist_binding());
    const driver::CompletionRegistry completions = mfc::make_completions(pool);
    component.set_completions(completions);
    driver::GeneratorOptions generator;
    generator.seed = 7;
    const std::size_t stride = sortable ? 6 : 2;
    const driver::TestSuite suite =
        every_nth(component.generate_tests(generator), stride);
    driver::GeneratorOptions probe_generator = generator;
    probe_generator.seed = generator.seed ^ 0x9e3779b97f4a7c15ULL;
    probe_generator.cases_per_transaction = 2;
    const driver::TestSuite probe =
        every_nth(component.generate_tests(probe_generator), stride);
    const auto mutants = enumerate_mutants(mfc::descriptors(), class_name);
    ASSERT_FALSE(mutants.empty());

    EngineOptions options;
    if (with_model) {
        options.runner.model = model::binding_for(class_name);
        ASSERT_NE(options.runner.model, nullptr);
    }
    driver::RunnerOptions probe_options = options.runner;
    probe_options.observe_each_call = true;
    const reflect::Registry& registry = component.registry();
    const driver::TestRunner runner(registry, options.runner);
    const driver::TestRunner probe_runner(registry, probe_options);

    CoveredRun covered = run_with_coverage(registry, options.runner, suite);
    CoveredRun probe_covered = run_with_coverage(registry, probe_options, probe);
    const auto golden = oracle::GoldenRecord::from(covered.result);
    const auto probe_golden = oracle::GoldenRecord::from(probe_covered.result);
    PrunePlanOptions plan_options;
    plan_options.memoize = !with_model;  // as the scheduler does
    const PrunePlan plan = build_prune_plan(
        runner, registry.at(class_name), suite, std::move(covered.index),
        &probe_runner, &probe, std::move(probe_covered.index), plan_options);

    PruneStats total;
    std::size_t crash_kills = 0;
    std::size_t probe_kills = 0;
    std::size_t model_kills = 0;
    for (const Mutant& mutant : mutants) {
        const MutantOutcome slow = evaluate_mutant(
            mutant, [&] { return runner.run(suite); }, golden,
            [&] { return probe_runner.run(probe); }, probe_golden, options);
        PruneStats stats;
        const MutantOutcome fast = evaluate_mutant_pruned(
            mutant, runner, registry.at(class_name), suite, golden,
            &probe_runner, &probe, probe_golden, plan, options, &stats);
        EXPECT_EQ(fast.fate, slow.fate) << mutant.id();
        EXPECT_EQ(fast.reason, slow.reason) << mutant.id();
        EXPECT_EQ(fast.hit_by_suite, slow.hit_by_suite) << mutant.id();
        EXPECT_EQ(fast.model_only, slow.model_only) << mutant.id();
        EXPECT_EQ(fast.killed_by_probe, slow.killed_by_probe) << mutant.id();
        // Per-mutant accounting: the probe only runs for a survivor.
        const std::uint64_t pairs =
            suite.size() + (fast.fate == MutantFate::Killed ? 0 : probe.size());
        EXPECT_EQ(stats.executed_pairs + stats.pruned_pairs + stats.decided_pairs,
                  pairs)
            << mutant.id();
        total += stats;
        crash_kills += slow.reason == oracle::KillReason::Crash ? 1 : 0;
        probe_kills += slow.killed_by_probe ? 1 : 0;
        model_kills += slow.reason == oracle::KillReason::ModelDivergence ? 1 : 0;
    }
    // The cutoff must actually have been exercised on both loops, and
    // the model runs must reach the differential channel.
    EXPECT_GT(crash_kills, 0u);
    EXPECT_GT(probe_kills, 0u);
    if (with_model) {
        EXPECT_GT(model_kills, 0u);
    }
    EXPECT_GT(total.decided_pairs, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Subjects, PruneEarlyExit,
    ::testing::Combine(::testing::Values("CObList", "CSortableObList"),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<PruneEarlyExit::ParamType>& info) {
        return std::string(std::get<0>(info.param)) +
               (std::get<1>(info.param) ? "Model" : "Plain");
    });

}  // namespace
}  // namespace stc::mutation

#include <gtest/gtest.h>

#include "stc/oracle/oracle.h"

namespace stc::oracle {
namespace {

using driver::TestResult;
using driver::Verdict;

driver::SuiteResult make_suite(std::vector<TestResult> results) {
    driver::SuiteResult out;
    out.results = std::move(results);
    return out;
}

TestResult passing(const std::string& id, const std::string& report) {
    TestResult r;
    r.case_id = id;
    r.verdict = Verdict::Pass;
    r.report = report;
    return r;
}

TestResult failing(const std::string& id, Verdict verdict) {
    TestResult r;
    r.case_id = id;
    r.verdict = verdict;
    r.message = "boom";
    return r;
}

TestResult diverging(const std::string& id, const std::string& report,
                     const std::string& divergence) {
    TestResult r = passing(id, report);
    r.model_divergence = divergence;
    return r;
}

// ------------------------------------------------------------ GoldenRecord

TEST(GoldenRecord, CapturesBaselineBehaviour) {
    const auto golden = GoldenRecord::from(
        make_suite({passing("TC0", "state-a"), passing("TC1", "state-b")}));
    EXPECT_EQ(golden.size(), 2u);
    EXPECT_TRUE(golden.all_passed());
    ASSERT_NE(golden.find("TC1"), nullptr);
    EXPECT_EQ(golden.find("TC1")->report, "state-b");
    EXPECT_EQ(golden.find("TC9"), nullptr);
}

TEST(GoldenRecord, AllPassedFalseWhenBaselineDirty) {
    const auto golden = GoldenRecord::from(
        make_suite({passing("TC0", "x"), failing("TC1", Verdict::Crash)}));
    EXPECT_FALSE(golden.all_passed());
}

// ---------------------------------------------------------------- classify

TEST(Classify, IdenticalBehaviourIsAlive) {
    const GoldenEntry golden{"TC0", Verdict::Pass, "same", "", ""};
    EXPECT_EQ(classify(golden, passing("TC0", "same")), KillReason::None);
}

TEST(Classify, CrashKillsWithHighestPriority) {
    const GoldenEntry golden{"TC0", Verdict::Pass, "same", "", ""};
    EXPECT_EQ(classify(golden, failing("TC0", Verdict::Crash)), KillReason::Crash);
}

TEST(Classify, AssertionKillRequiresCleanBaseline) {
    const GoldenEntry clean{"TC0", Verdict::Pass, "same", "", ""};
    EXPECT_EQ(classify(clean, failing("TC0", Verdict::AssertionViolation)),
              KillReason::Assertion);
    // Paper §4 condition (ii): "given that this was not the case with the
    // original program".
    const GoldenEntry dirty{"TC0", Verdict::AssertionViolation, "", "boom", ""};
    OracleConfig no_output;
    no_output.use_output_diff = false;
    EXPECT_EQ(classify(dirty, failing("TC0", Verdict::AssertionViolation), no_output),
              KillReason::None);
}

TEST(Classify, OutputDifferenceKills) {
    const GoldenEntry golden{"TC0", Verdict::Pass, "expected", "", ""};
    EXPECT_EQ(classify(golden, passing("TC0", "different")), KillReason::OutputDiff);
    // Verdict change also counts as an output difference.
    EXPECT_EQ(classify(golden, failing("TC0", Verdict::UncaughtException)),
              KillReason::OutputDiff);
}

TEST(Classify, ChannelsCanBeDisabled) {
    const GoldenEntry golden{"TC0", Verdict::Pass, "expected", "", ""};
    OracleConfig assertions_only;
    assertions_only.use_output_diff = false;
    EXPECT_EQ(classify(golden, passing("TC0", "different"), assertions_only),
              KillReason::None);

    OracleConfig output_only;
    output_only.use_assertions = false;
    // An assertion failure still differs in verdict -> output diff channel.
    EXPECT_EQ(classify(golden, failing("TC0", Verdict::AssertionViolation),
                       output_only),
              KillReason::OutputDiff);

    OracleConfig nothing;
    nothing.use_crashes = false;
    nothing.use_assertions = false;
    nothing.use_output_diff = false;
    EXPECT_EQ(classify(golden, failing("TC0", Verdict::Crash), nothing),
              KillReason::None);
}

TEST(Classify, ManualOracleComplementsAssertions) {
    const GoldenEntry golden{"TC0", Verdict::Pass, "sorted: 1 2 3", "", ""};
    // The observed run passes and matches the golden output; only a
    // manually derived oracle can reject it (paper §3.3).
    const ManualPredicate reject_all = [](const std::string&, const std::string&) {
        return false;
    };
    OracleConfig config;
    config.use_output_diff = false;
    EXPECT_EQ(classify(golden, passing("TC0", "sorted: 1 2 3"), config, reject_all),
              KillReason::ManualOracle);
    const ManualPredicate accept_all = [](const std::string&, const std::string&) {
        return true;
    };
    EXPECT_EQ(classify(golden, passing("TC0", "sorted: 1 2 3"), config, accept_all),
              KillReason::None);
}

// --------------------------------------------------- model channel / interplay

TEST(ClassifyModel, DivergenceKillsWhenGoldenConforms) {
    const GoldenEntry golden{"TC0", Verdict::Pass, "same", "", ""};
    EXPECT_EQ(classify(golden, diverging("TC0", "same", "call#3 Find: state")),
              KillReason::ModelDivergence);
}

TEST(ClassifyModel, DivergenceRequiresCleanBaseline) {
    // Condition (ii) for the model channel: the baseline run already
    // diverged, so a diverging mutant run proves nothing.
    const GoldenEntry dirty{"TC0", Verdict::Pass, "same", "", "call#1 base"};
    EXPECT_EQ(classify(dirty, diverging("TC0", "same", "call#1 base")),
              KillReason::None);
}

TEST(ClassifyModel, ChannelCanBeDisabled) {
    const GoldenEntry golden{"TC0", Verdict::Pass, "same", "", ""};
    OracleConfig no_model;
    no_model.use_model = false;
    EXPECT_EQ(classify(golden, diverging("TC0", "same", "call#3 Find: state"),
                       no_model),
              KillReason::None);
}

TEST(ClassifyModel, AssertionOutranksDivergence) {
    const GoldenEntry golden{"TC0", Verdict::Pass, "same", "", ""};
    TestResult observed = failing("TC0", Verdict::AssertionViolation);
    observed.model_divergence = "call#2 GetCount: return";
    EXPECT_EQ(classify(golden, observed), KillReason::Assertion);
}

TEST(ClassifyModel, DivergenceOutranksOutputDiff) {
    const GoldenEntry golden{"TC0", Verdict::Pass, "expected", "", ""};
    EXPECT_EQ(classify(golden, diverging("TC0", "different", "call#1 AddHead")),
              KillReason::ModelDivergence);
}

// Satellite (d): golden/model interplay.  A run that diverges from the
// reference model but still matches the golden output, and vice versa,
// must be reported distinctly by the differential classification.

TEST(Interplay, DivergesFromModelButMatchesGolden) {
    const auto golden = GoldenRecord::from(make_suite({passing("TC0", "same")}));
    const auto observed =
        make_suite({diverging("TC0", "same", "call#4 RemoveAt: state")});
    const auto kill = classify_suite_differential(golden, observed);
    EXPECT_EQ(kill.with_model, KillReason::ModelDivergence);
    EXPECT_EQ(kill.without_model, KillReason::None);
    EXPECT_TRUE(kill.model_only());
}

TEST(Interplay, MatchesModelButDiffersFromGolden) {
    const auto golden = GoldenRecord::from(make_suite({passing("TC0", "same")}));
    const auto observed = make_suite({passing("TC0", "DIFFERENT")});
    const auto kill = classify_suite_differential(golden, observed);
    EXPECT_EQ(kill.with_model, KillReason::OutputDiff);
    EXPECT_EQ(kill.without_model, KillReason::OutputDiff);
    EXPECT_FALSE(kill.model_only());
}

TEST(Interplay, BothFindingsReportedDistinctly) {
    // Diverges from the model AND from the golden output: the combined
    // oracle reports the stronger model finding while the without-model
    // leg still records the output diff -- both visible, not conflated.
    const auto golden = GoldenRecord::from(make_suite({passing("TC0", "same")}));
    const auto observed =
        make_suite({diverging("TC0", "DIFFERENT", "call#1 AddHead: state")});
    const auto kill = classify_suite_differential(golden, observed);
    EXPECT_EQ(kill.with_model, KillReason::ModelDivergence);
    EXPECT_EQ(kill.without_model, KillReason::OutputDiff);
    EXPECT_FALSE(kill.model_only());
}

TEST(Interplay, CleanRunKillsNeitherLeg) {
    const auto golden = GoldenRecord::from(make_suite({passing("TC0", "same")}));
    const auto kill =
        classify_suite_differential(golden, make_suite({passing("TC0", "same")}));
    EXPECT_EQ(kill.with_model, KillReason::None);
    EXPECT_EQ(kill.without_model, KillReason::None);
    EXPECT_FALSE(kill.model_only());
}

// ------------------------------------------------------------ whole suites

TEST(ClassifySuite, StrongestReasonWins) {
    const auto golden = GoldenRecord::from(
        make_suite({passing("TC0", "a"), passing("TC1", "b"), passing("TC2", "c")}));
    const auto observed = make_suite({
        passing("TC0", "a"),
        passing("TC1", "DIFFERENT"),
        failing("TC2", Verdict::AssertionViolation),
    });
    EXPECT_EQ(classify_suite(golden, observed), KillReason::Assertion);
}

TEST(ClassifySuite, AliveWhenEverythingMatches) {
    const auto golden =
        GoldenRecord::from(make_suite({passing("TC0", "a"), passing("TC1", "b")}));
    const auto observed = make_suite({passing("TC0", "a"), passing("TC1", "b")});
    EXPECT_EQ(classify_suite(golden, observed), KillReason::None);
}

TEST(ClassifySuite, UnknownCasesAreIgnored) {
    const auto golden = GoldenRecord::from(make_suite({passing("TC0", "a")}));
    const auto observed =
        make_suite({passing("TC0", "a"), failing("TC99", Verdict::Crash)});
    EXPECT_EQ(classify_suite(golden, observed), KillReason::None);
}

TEST(ClassifySuite, MisalignedResultsFallBackToLookupById) {
    // Results in a different order (or a subset) than the golden record:
    // the index-aligned guess misses and the id lookup must take over.
    const auto golden = GoldenRecord::from(
        make_suite({passing("TC0", "a"), passing("TC1", "b"), passing("TC2", "c")}));
    const auto observed =
        make_suite({passing("TC2", "c"), passing("TC1", "DIFFERENT")});
    EXPECT_EQ(classify_suite(golden, observed), KillReason::OutputDiff);
    EXPECT_EQ(golden.find(0, "TC2"), golden.find("TC2"));
    EXPECT_EQ(golden.find(1, "TC1"), &golden.entries()[1]);
    EXPECT_EQ(golden.find(7, "TC0"), &golden.entries()[0]);
    EXPECT_EQ(golden.find(0, "TC9"), nullptr);
}

// ---------------------------------------------------------------- KillFold

TEST(KillFold, AssertionThenCrashReportsCrash) {
    const GoldenEntry clean{"TC0", Verdict::Pass, "a", "", ""};
    KillFold fold;
    EXPECT_FALSE(fold.add(clean, failing("TC0", Verdict::AssertionViolation)));
    EXPECT_EQ(fold.kill().with_model, KillReason::Assertion);
    EXPECT_TRUE(fold.add(clean, failing("TC0", Verdict::Crash)));
    EXPECT_TRUE(fold.decided());
    EXPECT_EQ(fold.kill().with_model, KillReason::Crash);
}

TEST(KillFold, CrashThatTheBaselineAlsoShowedDoesNotDecide) {
    // The original program crashed in this case too: no crash kill, so
    // a later case may still raise a stronger reason than this one.
    GoldenEntry crashing{"TC0", Verdict::Crash, "", "boom", ""};
    KillFold fold;
    EXPECT_FALSE(fold.add(crashing, failing("TC0", Verdict::Crash)));
    EXPECT_FALSE(fold.decided());
    EXPECT_EQ(fold.kill().with_model, KillReason::None);
    const GoldenEntry clean{"TC1", Verdict::Pass, "b", "", ""};
    EXPECT_TRUE(fold.add(clean, failing("TC1", Verdict::Crash)));
    EXPECT_EQ(fold.kill().with_model, KillReason::Crash);
}

TEST(KillFold, WeakerReasonsNeverDecide) {
    const GoldenEntry clean{"TC0", Verdict::Pass, "a", "", ""};
    KillFold fold({}, nullptr, /*differential=*/true);
    EXPECT_FALSE(fold.add(clean, passing("TC0", "DIFFERENT")));
    EXPECT_FALSE(fold.add(clean, diverging("TC0", "a", "wrong size")));
    EXPECT_FALSE(fold.add(clean, failing("TC0", Verdict::AssertionViolation)));
    EXPECT_EQ(fold.kill().with_model, KillReason::Assertion);
    EXPECT_EQ(fold.kill().without_model, KillReason::Assertion);
    EXPECT_TRUE(fold.add(clean, failing("TC0", Verdict::Crash)));
}

TEST(KillFold, DifferentialLegsMatchTwoSeparateClassifications) {
    // Every (observed, later observed) combination of the kinds a case
    // can show: the fold's two legs must equal classify_suite run once
    // with the model channel and once without it.
    const GoldenEntry clean{"TC0", Verdict::Pass, "a", "", ""};
    const std::vector<TestResult> kinds = {
        passing("TC0", "a"),
        passing("TC0", "DIFFERENT"),
        diverging("TC0", "a", "wrong size"),
        diverging("TC0", "DIFFERENT", "wrong size"),
        failing("TC0", Verdict::AssertionViolation),
        failing("TC0", Verdict::Crash),
    };
    OracleConfig without;
    without.use_model = false;
    const auto golden = GoldenRecord::from(
        make_suite({passing("TC0", "a"), passing("TC0", "a")}));
    for (const TestResult& first : kinds) {
        for (const TestResult& second : kinds) {
            KillFold fold({}, nullptr, /*differential=*/true);
            if (!fold.add(clean, first)) (void)fold.add(clean, second);
            const auto observed = make_suite({first, second});
            EXPECT_EQ(fold.kill().with_model, classify_suite(golden, observed));
            EXPECT_EQ(fold.kill().without_model,
                      classify_suite(golden, observed, without));
        }
    }
}

TEST(KillFold, ModelOnlyKillIsReportedPerLeg) {
    const GoldenEntry clean{"TC0", Verdict::Pass, "a", "", ""};
    KillFold fold({}, nullptr, /*differential=*/true);
    EXPECT_FALSE(fold.add(clean, diverging("TC0", "a", "wrong size")));
    EXPECT_EQ(fold.kill().with_model, KillReason::ModelDivergence);
    EXPECT_EQ(fold.kill().without_model, KillReason::None);
    EXPECT_TRUE(fold.kill().model_only());
}

TEST(KillReasonNames, AreStable) {
    EXPECT_STREQ(to_string(KillReason::None), "alive");
    EXPECT_STREQ(to_string(KillReason::Crash), "crash");
    EXPECT_STREQ(to_string(KillReason::Assertion), "assertion");
    EXPECT_STREQ(to_string(KillReason::ModelDivergence), "model-divergence");
    EXPECT_STREQ(to_string(KillReason::OutputDiff), "output-diff");
    EXPECT_STREQ(to_string(KillReason::ManualOracle), "manual-oracle");
}

}  // namespace
}  // namespace stc::oracle

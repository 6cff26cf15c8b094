// End-to-end tests of the `concat` command-line tool: each subcommand is
// exercised against a t-spec file on disk, checking exit codes and
// output artifacts.  Skipped when the binary location is not exported by
// the test harness.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "product_component.h"
#include "stc/driver/runner.h"
#include "stc/driver/suite_io.h"
#include "stc/fuzz/corpus.h"
#include "stc/obs/trace.h"
#include "test_paths.h"

namespace {

class CliTest : public ::testing::Test {
protected:
    void SetUp() override {
        binary_ = std::string(STC_BUILD_DIR) + "/tools/concat";
        std::ifstream probe(binary_);
        if (!probe.good()) GTEST_SKIP() << "concat binary not built";

        // Process-unique path: ctest runs these cases as parallel
        // processes, and concurrent writers of one shared file produce
        // torn reads in whoever parses it mid-rewrite.
        tspec_path_ = "/tmp/stc_cli_product_" + std::to_string(getpid()) +
                      ".tspec";
        std::ofstream out(tspec_path_);
        out << stc::examples::product_tspec_text();
    }

    /// Run the CLI; returns the exit code, captures stdout into `path`.
    int run(const std::string& args, const std::string& redirect = {}) const {
        std::string cmd = binary_ + " " + args;
        if (!redirect.empty()) cmd += " > " + redirect + " 2>&1";
        else cmd += " > /dev/null 2>&1";
        const int status = std::system(cmd.c_str());
        return status == -1 ? -1 : WEXITSTATUS(status);
    }

    static std::string slurp(const std::string& path) {
        std::ifstream in(path);
        std::stringstream buffer;
        buffer << in.rdbuf();
        return buffer.str();
    }

    std::string binary_;
    std::string tspec_path_;
};

TEST_F(CliTest, ValidateAcceptsTheProductSpec) {
    EXPECT_EQ(run("validate " + tspec_path_, "/tmp/stc_cli_validate.out"), 0);
    const std::string out = slurp("/tmp/stc_cli_validate.out");
    EXPECT_NE(out.find("Product: valid"), std::string::npos);
}

TEST_F(CliTest, ValidateRejectsBrokenSpec) {
    const std::string bad = "/tmp/stc_cli_bad.tspec";
    {
        std::ofstream out(bad);
        out << "Class ('X', No, <empty>, <empty>)\n"
               "Method (m1, 'X', <empty>, constructor, 0)\n"
               "Node (n1, Yes, 1, [m1, mZZZ])\n"  // dangling method
               "Edge (n1, n1)\n";
    }
    EXPECT_EQ(run("validate " + bad, "/tmp/stc_cli_validate_bad.out"), 1);
    EXPECT_NE(slurp("/tmp/stc_cli_validate_bad.out").find("INVALID"),
              std::string::npos);
}

TEST_F(CliTest, ParseErrorsExitNonZero) {
    const std::string garbage = "/tmp/stc_cli_garbage.tspec";
    {
        std::ofstream out(garbage);
        out << "Class ('X' missing commas)";
    }
    EXPECT_EQ(run("validate " + garbage), 1);
    EXPECT_EQ(run("validate /tmp/definitely_not_there.tspec"), 1);
}

TEST_F(CliTest, PrintRoundTrips) {
    ASSERT_EQ(run("print " + tspec_path_ + " -o /tmp/stc_cli_printed.tspec",
                  "/tmp/stc_cli_print.log"),
              0);
    // The printed spec re-validates cleanly.
    EXPECT_EQ(run("validate /tmp/stc_cli_printed.tspec"), 0);
}

TEST_F(CliTest, DotEmitsGraphviz) {
    ASSERT_EQ(run("dot " + tspec_path_, "/tmp/stc_cli_dot.out"), 0);
    const std::string dot = slurp("/tmp/stc_cli_dot.out");
    EXPECT_NE(dot.find("digraph tfm {"), std::string::npos);
    EXPECT_NE(dot.find("doublecircle"), std::string::npos);
}

TEST_F(CliTest, TransactionsListsPaths) {
    ASSERT_EQ(run("transactions " + tspec_path_ + " --max-visits 1",
                  "/tmp/stc_cli_tx.out"),
              0);
    const std::string out = slurp("/tmp/stc_cli_tx.out");
    EXPECT_NE(out.find("n2 -> n8 -> n10 -> n11"), std::string::npos);
    EXPECT_NE(out.find("transaction(s) selected"), std::string::npos);
}

TEST_F(CliTest, SuiteOutputLoadsBack) {
    ASSERT_EQ(run("suite " + tspec_path_ +
                      " --seed 7 --max-visits 1 -o /tmp/stc_cli_suite.txt",
                  "/tmp/stc_cli_suite.log"),
              0);
    std::ifstream in("/tmp/stc_cli_suite.txt");
    const auto suite = stc::driver::load_suite(in);
    EXPECT_EQ(suite.class_name, "Product");
    EXPECT_EQ(suite.seed, 7u);
    EXPECT_GT(suite.size(), 0u);
}

TEST_F(CliTest, CriterionShrinksTheSuite) {
    ASSERT_EQ(run("suite " + tspec_path_ + " -o /tmp/stc_cli_all.txt"), 0);
    ASSERT_EQ(run("suite " + tspec_path_ +
                  " --criterion all-nodes -o /tmp/stc_cli_nodes.txt"),
              0);
    std::ifstream all_in("/tmp/stc_cli_all.txt");
    std::ifstream nodes_in("/tmp/stc_cli_nodes.txt");
    EXPECT_LT(stc::driver::load_suite(nodes_in).size(),
              stc::driver::load_suite(all_in).size());
}

TEST_F(CliTest, DescribeSummarizesTheSpec) {
    ASSERT_EQ(run("describe " + tspec_path_, "/tmp/stc_cli_desc.out"), 0);
    const std::string out = slurp("/tmp/stc_cli_desc.out");
    EXPECT_NE(out.find("class Product"), std::string::npos);
    EXPECT_NE(out.find("m6  UpdateQty(range q)"), std::string::npos);
    EXPECT_NE(out.find("[constructor]"), std::string::npos);
    EXPECT_NE(out.find("test model: 11 node(s), 17 link(s)"), std::string::npos);
}

TEST_F(CliTest, CoverageReportsRatios) {
    ASSERT_EQ(run("coverage " + tspec_path_, "/tmp/stc_cli_cov.out"), 0);
    const std::string out = slurp("/tmp/stc_cli_cov.out");
    EXPECT_NE(out.find("node coverage: 11/11"), std::string::npos);
    EXPECT_NE(out.find("link coverage: 17/17"), std::string::npos);

    ASSERT_EQ(run("coverage " + tspec_path_ + " --criterion all-nodes",
                  "/tmp/stc_cli_cov_nodes.out"),
              0);
    EXPECT_NE(slurp("/tmp/stc_cli_cov_nodes.out").find("criterion: all-nodes"),
              std::string::npos);
}

TEST_F(CliTest, GenEmitsDriverSource) {
    ASSERT_EQ(run("gen " + tspec_path_ +
                      " --include product.h --using stc::examples --log R.txt"
                      " --max-visits 1 -o /tmp/stc_cli_driver.cpp",
                  "/tmp/stc_cli_gen.log"),
              0);
    const std::string src = slurp("/tmp/stc_cli_driver.cpp");
    EXPECT_NE(src.find("#include \"product.h\""), std::string::npos);
    EXPECT_NE(src.find("using namespace stc::examples;"), std::string::npos);
    EXPECT_NE(src.find("\"R.txt\""), std::string::npos);
    EXPECT_NE(src.find("int main() {"), std::string::npos);
    EXPECT_NE(src.find("tester_supplied_Provider"), std::string::npos);
}

TEST_F(CliTest, StatesFlagEmitsEntryVariants) {
    const std::string stateful = "/tmp/stc_cli_stateful.tspec";
    {
        std::ofstream out(stateful);
        out << "Class ('S', No, <empty>, <empty>)\n"
               "State ('empty')\n"
               "Method (m1, 'S', <empty>, constructor, 0)\n"
               "Method (m2, '~S', <empty>, destructor, 0)\n"
               "Method (m3, 'f', <empty>, new, 0)\n"
               "Node (n1, Yes, 1, [m1])\n"
               "Node (n2, No, 1, [m3])\n"
               "Node (n3, No, 0, [m2])\n"
               "Edge (n1, n2)\nEdge (n2, n3)\n";
    }
    ASSERT_EQ(run("suite " + stateful + " -o /tmp/stc_cli_plain_suite.txt"), 0);
    ASSERT_EQ(run("suite " + stateful + " --states -o /tmp/stc_cli_state_suite.txt"),
              0);
    std::ifstream plain_in("/tmp/stc_cli_plain_suite.txt");
    std::ifstream stateful_in("/tmp/stc_cli_state_suite.txt");
    const auto plain = stc::driver::load_suite(plain_in);
    const auto with_states = stc::driver::load_suite(stateful_in);
    EXPECT_EQ(with_states.size(), plain.size() * 2);
}

TEST_F(CliTest, ReplanClassifiesAFrozenSuite) {
    // Freeze a suite of release 1, then replan against a release whose
    // UpdateQty (m6) changed its domain and whose RemoveProduct (m11)
    // disappeared.
    ASSERT_EQ(run("suite " + tspec_path_ + " -o /tmp/stc_cli_frozen.txt"), 0);

    std::string v2 = stc::examples::product_tspec_text();
    // Widen the UpdateQty domain.
    const std::string old_line = "Parameter (m6, 'q', range, 0, 99999)";
    const std::string new_line = "Parameter (m6, 'q', range, 0, 999999)";
    v2.replace(v2.find(old_line), old_line.size(), new_line);
    {
        std::ofstream out("/tmp/stc_cli_v2.tspec");
        out << v2;
    }

    ASSERT_EQ(run("replan " + tspec_path_ +
                      " --new /tmp/stc_cli_v2.tspec --frozen /tmp/stc_cli_frozen.txt"
                      " -o /tmp/stc_cli_stillvalid.txt",
                  "/tmp/stc_cli_replan.out"),
              0);
    const std::string out = slurp("/tmp/stc_cli_replan.out");
    EXPECT_NE(out.find("m6: domain-changed"), std::string::npos);
    EXPECT_NE(out.find("regenerate:"), std::string::npos);

    // The still-valid subset loads back and is smaller than the original.
    std::ifstream sv("/tmp/stc_cli_stillvalid.txt");
    const auto still_valid = stc::driver::load_suite(sv);
    std::ifstream fr("/tmp/stc_cli_frozen.txt");
    const auto frozen = stc::driver::load_suite(fr);
    EXPECT_LT(still_valid.size(), frozen.size());
    EXPECT_GT(still_valid.size(), 0u);
}

TEST_F(CliTest, ReplanRequiresItsOptions) {
    EXPECT_EQ(run("replan " + tspec_path_), 2);
}

TEST_F(CliTest, BadUsageExits2) {
    EXPECT_EQ(run(""), 2);
    EXPECT_EQ(run("frobnicate " + tspec_path_), 2);
    EXPECT_EQ(run("suite " + tspec_path_ + " --criterion bogus"), 2);
}

TEST_F(CliTest, UnknownFlagsNameTheFlagAndExit2) {
    // A flag another subcommand owns is still unknown here.
    EXPECT_EQ(run("validate " + tspec_path_ + " --jobs 4",
                  "/tmp/stc_cli_badflag.out"),
              2);
    const std::string out = slurp("/tmp/stc_cli_badflag.out");
    EXPECT_NE(out.find("'--jobs'"), std::string::npos);
    EXPECT_NE(out.find("validate"), std::string::npos);

    EXPECT_EQ(run("suite " + tspec_path_ + " --frozen x"), 2);
    EXPECT_EQ(run("stats /tmp/whatever.jsonl --seed 1"), 2);
    EXPECT_EQ(run("campaign coblist --totally-made-up"), 2);
}

TEST_F(CliTest, TraceOutWritesAChromeTraceOnAnySubcommand) {
    const std::string trace = "/tmp/stc_cli_suite_trace.json";
    std::remove(trace.c_str());
    ASSERT_EQ(run("suite " + tspec_path_ + " --trace-out " + trace +
                  " -o /tmp/stc_cli_traced_suite.txt"),
              0);

    std::ifstream in(trace);
    ASSERT_TRUE(in.good());
    const auto events = stc::obs::parse_chrome_trace(in);
    ASSERT_TRUE(events.has_value());
    bool saw_generate = false;
    for (const auto& e : *events) {
        if (e.category == "phase" && e.name == "generate-suite") {
            saw_generate = true;
        }
    }
    EXPECT_TRUE(saw_generate);
}

TEST_F(CliTest, MetricsOutPicksFormatFromTheExtension) {
    ASSERT_EQ(run("suite " + tspec_path_ +
                  " --metrics-out /tmp/stc_cli_metrics.txt"
                  " -o /tmp/stc_cli_m_suite.txt"),
              0);
    const std::string text = slurp("/tmp/stc_cli_metrics.txt");
    EXPECT_NE(text.find("generator.value_draws"), std::string::npos);
    EXPECT_NE(text.find("| counter"), std::string::npos);  // text table

    ASSERT_EQ(run("suite " + tspec_path_ +
                  " --metrics-out /tmp/stc_cli_metrics.json"
                  " -o /tmp/stc_cli_m_suite.txt"),
              0);
    const std::string json = slurp("/tmp/stc_cli_metrics.json");
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"generator.value_draws\""), std::string::npos);
}

TEST_F(CliTest, CampaignTraceCoversThePipelineAndStatsSummarizesIt) {
    const std::string trace = "/tmp/stc_cli_campaign_trace.json";
    const std::string telemetry = "/tmp/stc_cli_campaign_tel.jsonl";
    std::remove(trace.c_str());
    std::remove(telemetry.c_str());

    ASSERT_EQ(run("campaign coblist --jobs 2 --trace-out " + trace +
                      " --telemetry-out " + telemetry +
                      " -o /tmp/stc_cli_campaign_rep.txt",
                  "/tmp/stc_cli_campaign.log"),
              0);

    // The trace is the emitted Chrome subset with the span taxonomy the
    // acceptance criteria name: phase, test case, method call, mutant
    // evaluation.
    std::ifstream in(trace);
    ASSERT_TRUE(in.good());
    const auto events = stc::obs::parse_chrome_trace(in);
    ASSERT_TRUE(events.has_value());
    std::set<std::string> categories;
    for (const auto& e : *events) categories.insert(e.category);
    for (const char* expected :
         {"phase", "test-case", "method-call", "mutant-evaluation"}) {
        EXPECT_EQ(categories.count(expected), 1u) << expected;
    }

    // `concat stats` renders the telemetry into the run summary.
    ASSERT_EQ(run("stats " + telemetry + " --top 3", "/tmp/stc_cli_stats.out"),
              0);
    const std::string out = slurp("/tmp/stc_cli_stats.out");
    EXPECT_NE(out.find("campaign: CObList"), std::string::npos);
    EXPECT_NE(out.find("| fate"), std::string::npos);
    EXPECT_NE(out.find("| kill reason"), std::string::npos);
    EXPECT_NE(out.find("| slowest item"), std::string::npos);
    EXPECT_NE(out.find("| worker"), std::string::npos);

    EXPECT_EQ(run("stats /tmp/stc_cli_no_such_telemetry.jsonl"), 1);
}

// ---------------------------------------------------------------- fuzz

// The ISSUE's seeded fault: this mutant nulls AddHead's required
// parameter check and crashes on the first AddHead of any transaction.
const char* const kSeededFault = "CObList::AddHead@s0.IndVarRepReq.NULL";

TEST_F(CliTest, FuzzSeedStabilityIsByteIdentical) {
    // Two same-seed runs must agree byte-for-byte: report, coverage
    // counters, and corpus contents.  Corpus directories differ on
    // purpose — filenames, not paths, appear in the report.
    const std::string base = "/tmp/stc_cli_fuzz_stab";
    std::system(("rm -rf " + base + "_a " + base + "_b").c_str());
    const std::string args =
        std::string("fuzz coblist --iters 150 --seed 11 --mutant ") +
        kSeededFault;
    ASSERT_EQ(run(args + " --corpus " + base + "_a", base + "_a.out"), 0);
    ASSERT_EQ(run(args + " --corpus " + base + "_b", base + "_b.out"), 0);
    const std::string report = slurp(base + "_a.out");
    EXPECT_EQ(report, slurp(base + "_b.out"));
    EXPECT_NE(report.find("findings:"), std::string::npos);

    const auto corpus_a = stc::fuzz::list_corpus(base + "_a");
    const auto corpus_b = stc::fuzz::list_corpus(base + "_b");
    ASSERT_EQ(corpus_a.size(), corpus_b.size());
    ASSERT_FALSE(corpus_a.empty());
    for (std::size_t i = 0; i < corpus_a.size(); ++i) {
        EXPECT_EQ(slurp(corpus_a[i]), slurp(corpus_b[i]));
    }
}

TEST_F(CliTest, FuzzFindsTheSeededFaultAndShrinksToFiveCallsOrFewer) {
    // The PR's acceptance gate: fuzzing against the seeded fault finds a
    // failing case and reduces it to a <=5-call reproducer that replays
    // to the same verdict.
    const std::string dir = "/tmp/stc_cli_fuzz_accept";
    std::system(("rm -rf " + dir).c_str());
    ASSERT_EQ(run(std::string("fuzz coblist --iters 200 --seed 11 --mutant ") +
                      kSeededFault + " --corpus " + dir,
                  dir + ".out"),
              0);
    const auto entries = stc::fuzz::list_corpus(dir);
    ASSERT_FALSE(entries.empty());
    const auto entry = stc::fuzz::load_entry_file(entries.front());
    EXPECT_LE(entry.reproducer().calls.size(), 5u);
    EXPECT_EQ(entry.mutant_id, kSeededFault);
    EXPECT_NE(entry.verdict, stc::driver::Verdict::Pass);

    // `concat shrink` re-verifies the persisted entry end to end.
    EXPECT_EQ(run("shrink coblist --case " + entries.front(),
                  dir + "_reshrink.out"),
              0);
}

TEST_F(CliTest, FuzzTelemetryListsEveryVerdictKindInStats) {
    const std::string telemetry = "/tmp/stc_cli_fuzz_tel.jsonl";
    std::remove(telemetry.c_str());
    ASSERT_EQ(run("fuzz coblist --iters 60 --seed 3 --telemetry-out " +
                      telemetry,
                  "/tmp/stc_cli_fuzz_tel.out"),
              0);
    ASSERT_EQ(run("stats " + telemetry, "/tmp/stc_cli_fuzz_stats.out"), 0);
    const std::string out = slurp("/tmp/stc_cli_fuzz_stats.out");
    EXPECT_NE(out.find("fuzz: CObList"), std::string::npos);
    // Zero-count kinds stay visible — the fate table must not hide
    // contract-not-enforced or setup-error just because they never fired.
    for (const stc::driver::Verdict v : stc::driver::kAllVerdicts) {
        EXPECT_NE(out.find(stc::driver::to_string(v)), std::string::npos)
            << stc::driver::to_string(v);
    }
}

TEST_F(CliTest, FuzzIsolateMatchesInProcessAndForksOnce) {
    // `fuzz --isolate` replays every case in one persistent fork-server
    // worker: the report byte-matches the in-process run, and a run in
    // which no worker dies forks exactly once.
    const std::string base =
        "/tmp/stc_cli_fuzz_iso_" + std::to_string(getpid());
    const std::string telemetry = base + ".jsonl";
    std::remove(telemetry.c_str());
    const std::string args =
        std::string("fuzz coblist --iters 200 --seed 11 --mutant ") +
        kSeededFault;
    ASSERT_EQ(run(args, base + "_inproc.out"), 0);
    ASSERT_EQ(run(args + " --isolate --telemetry-out " + telemetry,
                  base + "_iso.out"),
              0);
    EXPECT_EQ(slurp(base + "_inproc.out"), slurp(base + "_iso.out"));

    std::istringstream lines(slurp(telemetry));
    std::string end;
    for (std::string line; std::getline(lines, line);) {
        if (line.find("\"event\":\"fuzz-end\"") != std::string::npos) end = line;
    }
    ASSERT_FALSE(end.empty());
    EXPECT_NE(end.find("\"sandbox_spawns\":1,"), std::string::npos) << end;
}

TEST_F(CliTest, FuzzAndShrinkRejectBadInvocations) {
    EXPECT_EQ(run("fuzz coblist --mutant No::Such@mutant"), 2);
    EXPECT_EQ(run("fuzz nonesuch --iters 5"), 2);
    EXPECT_EQ(run("fuzz coblist --top 3"), 2);  // stats-only flag
    EXPECT_EQ(run("shrink coblist"), 2);        // --case is required
    EXPECT_EQ(run("suite " + tspec_path_ + " --iters 5"), 2);  // fuzz-only flag
}

// ---------------------------------------------------------------- model

TEST_F(CliTest, ModelCampaignReportsOracleStrengthAndStatsKeepZeroRows) {
    const std::string rep = "/tmp/stc_cli_model_rep.txt";
    const std::string telemetry = "/tmp/stc_cli_model_tel.jsonl";
    std::remove(rep.c_str());
    std::remove(telemetry.c_str());

    ASSERT_EQ(run("campaign coblist --model --jobs 2 --telemetry-out " +
                      telemetry + " -o " + rep,
                  "/tmp/stc_cli_model_camp.log"),
              0);
    const std::string report = slurp(rep);
    EXPECT_NE(report.find("model-divergence="), std::string::npos);
    EXPECT_NE(report.find("oracle strength: killed-only-by-model="),
              std::string::npos);
    // The acceptance mutant is killed by the model alone and audited so.
    EXPECT_NE(report.find("(model-only)"), std::string::npos);
    EXPECT_EQ(report.find("killed-only-by-model=0"), std::string::npos);

    // `concat stats` keeps zero-count kill reasons visible (regression:
    // the table used to hide kinds that never fired — a detector that
    // killed nothing looked like a detector that didn't exist) and adds
    // the oracle-strength breakdown for model campaigns.
    ASSERT_EQ(run("stats " + telemetry, "/tmp/stc_cli_model_stats.out"), 0);
    const std::string out = slurp("/tmp/stc_cli_model_stats.out");
    for (const char* reason :
         {"crash", "assertion", "illegal-quiescence", "model-divergence",
          "output-diff", "manual-oracle"}) {
        EXPECT_NE(out.find(reason), std::string::npos) << reason;
    }
    EXPECT_NE(out.find("| oracle strength"), std::string::npos);
    EXPECT_NE(out.find("killed only by model"), std::string::npos);
}

TEST_F(CliTest, RunSubcommandExecutesAndFlagsDivergence) {
    // Clean conformance run: every generated case passes under the
    // lockstep model.
    ASSERT_EQ(run("run coblist --model", "/tmp/stc_cli_run.out"), 0);
    const std::string out = slurp("/tmp/stc_cli_run.out");
    EXPECT_NE(out.find("run: CObList"), std::string::npos);
    EXPECT_NE(out.find("model oracle"), std::string::npos);
    EXPECT_NE(out.find("verdicts:"), std::string::npos);
    EXPECT_NE(out.find("model-divergence=0"), std::string::npos);

    // Against the model-only mutant the same run exits 1 and names the
    // diverging verdict.
    EXPECT_EQ(run("run coblist --model "
                  "--mutant CObList::RemoveAt@s9.IndVarRepGlob.m_pNodeTail",
                  "/tmp/stc_cli_run_mut.out"),
              1);
    const std::string mutated = slurp("/tmp/stc_cli_run_mut.out");
    EXPECT_NE(mutated.find("model-divergence"), std::string::npos);

    EXPECT_EQ(run("run nonesuch"), 2);
    EXPECT_EQ(run("run coblist --iters 5"), 2);  // fuzz-only flag
    EXPECT_EQ(run("run coblist --mutant No::Such@m"), 2);
}

TEST_F(CliTest, CampaignShrinkCorpusIsIdenticalAcrossJobCounts) {
    const std::string dir1 = "/tmp/stc_cli_camp_corpus1";
    const std::string dir4 = "/tmp/stc_cli_camp_corpus4";
    std::system(("rm -rf " + dir1 + " " + dir4).c_str());
    ASSERT_EQ(run("campaign coblist --jobs 1 --seed 3 --shrink-corpus " + dir1 +
                      " -o /tmp/stc_cli_camp_rep1.txt",
                  "/tmp/stc_cli_camp1.log"),
              0);
    ASSERT_EQ(run("campaign coblist --jobs 4 --seed 3 --shrink-corpus " + dir4 +
                      " -o /tmp/stc_cli_camp_rep4.txt",
                  "/tmp/stc_cli_camp4.log"),
              0);
    EXPECT_EQ(slurp("/tmp/stc_cli_camp_rep1.txt"),
              slurp("/tmp/stc_cli_camp_rep4.txt"));

    const auto corpus1 = stc::fuzz::list_corpus(dir1);
    const auto corpus4 = stc::fuzz::list_corpus(dir4);
    ASSERT_EQ(corpus1.size(), corpus4.size());
    ASSERT_FALSE(corpus1.empty());
    for (std::size_t i = 0; i < corpus1.size(); ++i) {
        EXPECT_EQ(slurp(corpus1[i]), slurp(corpus4[i]));
        // Every persisted reproducer is a loadable, single-case entry.
        const auto entry = stc::fuzz::load_entry_file(corpus1[i]);
        EXPECT_EQ(entry.suite.size(), 1u);
        EXPECT_FALSE(entry.mutant_id.empty());
    }
}

// ----------------------------------------------------------------- kill

TEST_F(CliTest, KillValidatesItsStoreAndGating) {
    const std::string store =
        "/tmp/stc_cli_kill_none_" + std::to_string(getpid()) + ".jsonl";

    // Option gating: the pass is explicit about what it targets.
    EXPECT_EQ(run("kill coblist --resume " + store,
                  "/tmp/stc_cli_kill_noalive.out"),
              2);
    EXPECT_NE(slurp("/tmp/stc_cli_kill_noalive.out").find("--alive"),
              std::string::npos);
    EXPECT_EQ(run("kill coblist --alive"), 2);  // no store named
    EXPECT_EQ(run("kill nonesuch --alive --resume " + store), 2);

    // Assembly gating, both directions (mirrors campaign/fuzz).
    EXPECT_EQ(run("kill shop --alive --resume " + store,
                  "/tmp/stc_cli_kill_asm.out"),
              2);
    EXPECT_NE(slurp("/tmp/stc_cli_kill_asm.out").find("single-class"),
              std::string::npos);
    EXPECT_EQ(run("kill coblist --assembly --alive --resume " + store), 2);

    // A missing store is a hard error that names the store.
    EXPECT_EQ(run("kill coblist --alive --resume " + store,
                  "/tmp/stc_cli_kill_missing.out"),
              2);
    EXPECT_NE(slurp("/tmp/stc_cli_kill_missing.out").find(store),
              std::string::npos);

    // So is one whose header does not parse.
    {
        std::ofstream out(store);
        out << "this is not a result store\n";
    }
    EXPECT_EQ(run("kill coblist --alive --resume " + store), 2);
    std::remove(store.c_str());
}

TEST_F(CliTest, KillRaisesTheStoredScoreAndGuardsTheFingerprint) {
    const std::string base =
        "/tmp/stc_cli_kill_" + std::to_string(getpid());
    const std::string store = base + "_store.jsonl";
    std::remove(store.c_str());

    // A finished model campaign leaves survivors in the store.
    ASSERT_EQ(run("campaign coblist --model --resume " + store +
                      " -o " + base + "_campaign.txt",
                  base + "_campaign.log"),
              0);

    // A store from different campaign options (here: no --model) is
    // rejected by fingerprint, naming the store.
    EXPECT_EQ(run("kill coblist --alive --resume " + store,
                  base + "_mismatch.out"),
              2);
    EXPECT_NE(slurp(base + "_mismatch.out").find("different campaign"),
              std::string::npos);

    // The pass itself verifies killers and raises the stored score.
    ASSERT_EQ(run("kill coblist --alive --model --resume " + store +
                      " -o " + base + "_kill.txt",
                  base + "_kill.log"),
              0);
    const std::string report = slurp(base + "_kill.txt");
    EXPECT_NE(report.find("raised by synthesis: 2"), std::string::npos);
    EXPECT_NE(report.find("score: 94.4% -> 96.0%"), std::string::npos);

    // The rewritten store replays through campaign --resume with the
    // synthesized kills visible.
    ASSERT_EQ(run("campaign coblist --model --resume " + store +
                      " -o " + base + "_resumed.txt",
                  base + "_resumed.log"),
              0);
    const std::string resumed = slurp(base + "_resumed.txt");
    EXPECT_NE(resumed.find("raised by synthesis: 2"), std::string::npos);
    EXPECT_NE(resumed.find("(synthesized)"), std::string::npos);

    // With no survivors left to target, the pass is a clean no-op.
    std::string emptied = slurp(store);
    for (std::string::size_type at = 0;
         (at = emptied.find("\"fate\":\"alive\"", at)) != std::string::npos;) {
        emptied.replace(at, 14, "\"fate\":\"equivalent\"");
    }
    const std::string none = base + "_none.jsonl";
    {
        std::ofstream out(none);
        out << emptied;
    }
    EXPECT_EQ(run("kill coblist --alive --model --resume " + none,
                  base + "_none.out"),
              0);
    EXPECT_NE(slurp(base + "_none.out").find("nothing to kill"),
              std::string::npos);

    std::remove(store.c_str());
    std::remove(none.c_str());
}

// ------------------------------------------------------------- assembly

TEST_F(CliTest, AssembleReportsProductStatsAndRendersArtifacts) {
    const std::string shop =
        std::string(STC_SOURCE_DIR) + "/examples/shop/shop.tspec";
    ASSERT_EQ(run("assemble " + shop, "/tmp/stc_cli_assemble.out"), 0);
    const std::string out = slurp("/tmp/stc_cli_assemble.out");
    EXPECT_NE(out.find("assembly Shop: 4 role(s), 6 wire(s), 5 export(s)"),
              std::string::npos);
    EXPECT_NE(out.find("conceivable tuples: 400"), std::string::npos);
    EXPECT_NE(out.find("hidden wires:"), std::string::npos);
    EXPECT_NE(out.find("product Shop: valid"), std::string::npos);

    ASSERT_EQ(run("assemble " + shop + " --dot",
                  "/tmp/stc_cli_assemble_dot.out"),
              0);
    EXPECT_NE(slurp("/tmp/stc_cli_assemble_dot.out").find("digraph tfm"),
              std::string::npos);

    ASSERT_EQ(run("assemble " + shop + " --transactions --criterion all-links",
                  "/tmp/stc_cli_assemble_tx.out"),
              0);
    EXPECT_NE(
        slurp("/tmp/stc_cli_assemble_tx.out").find("transaction(s) selected"),
        std::string::npos);

    EXPECT_EQ(run("assemble /tmp/definitely_not_there.tspec"), 1);
    EXPECT_EQ(run("assemble " + tspec_path_), 1);  // class t-spec, not assembly
    EXPECT_EQ(run("assemble " + shop + " --jobs 2"), 2);  // campaign-only flag
}

TEST_F(CliTest, AssemblyCampaignKillsCollaborationFaultsTheWalletRunMisses) {
    // The ISSUE's §6 comparison in miniature: the write-through NULL
    // mutants drop ledger bookings silently, survive the intraclass
    // wallet campaign (the pool Ledger is unobserved), and die through
    // the shop assembly's public interface — by illegal quiescence,
    // the ioco output-obligation channel.
    const std::string shop_rep = "/tmp/stc_cli_shop_rep.txt";
    ASSERT_EQ(run("campaign shop --assembly --criterion all-links --jobs 2 "
                  "-o " + shop_rep,
                  "/tmp/stc_cli_shop_camp.log"),
              0);
    const std::string report = slurp(shop_rep);
    EXPECT_NE(report.find("illegal-quiescence="), std::string::npos);
    EXPECT_EQ(report.find("illegal-quiescence=0"), std::string::npos);
    EXPECT_NE(report.find("Wallet::Deposit@s2.IndVarRepReq.NULL  killed  "
                          "[illegal-quiescence]"),
              std::string::npos);
    EXPECT_NE(report.find("Wallet::Withdraw@s3.IndVarRepReq.NULL  killed  "
                          "[illegal-quiescence]"),
              std::string::npos);

    const std::string wallet_rep = "/tmp/stc_cli_wallet_rep.txt";
    ASSERT_EQ(run("campaign wallet --criterion all-links -o " + wallet_rep,
                  "/tmp/stc_cli_wallet_camp.log"),
              0);
    const std::string baseline = slurp(wallet_rep);
    EXPECT_NE(baseline.find("Wallet::Deposit@s2.IndVarRepReq.NULL  alive"),
              std::string::npos);
    EXPECT_NE(baseline.find("Wallet::Withdraw@s3.IndVarRepReq.NULL  alive"),
              std::string::npos);
    EXPECT_NE(baseline.find("illegal-quiescence=0"), std::string::npos);
}

TEST_F(CliTest, AssemblyTargetsRequireTheAssemblyFlag) {
    // Both directions, both entry points: the flag and the target's
    // registered kind must agree before any work (or socket) happens.
    EXPECT_EQ(run("campaign shop", "/tmp/stc_cli_shop_noflag.out"), 2);
    EXPECT_NE(slurp("/tmp/stc_cli_shop_noflag.out").find("--assembly"),
              std::string::npos);
    EXPECT_EQ(run("campaign wallet --assembly"), 2);
    EXPECT_EQ(run("campaign coblist --assembly"), 2);
    EXPECT_EQ(run("dispatch shop --workers 127.0.0.1:1"), 2);
    EXPECT_EQ(run("dispatch sortable --assembly --workers 127.0.0.1:1"), 2);
    // And an unknown target names the registered ones.
    EXPECT_EQ(run("campaign nonesuch", "/tmp/stc_cli_unknown_target.out"), 2);
    const std::string err = slurp("/tmp/stc_cli_unknown_target.out");
    EXPECT_NE(err.find("shop"), std::string::npos);
    EXPECT_NE(err.find("wallet"), std::string::npos);
}

// ------------------------------------------------------- serve/dispatch

TEST_F(CliTest, ServeAndDispatchPoliceTheirFlags) {
    EXPECT_EQ(run("serve --jobs 2"), 2);              // campaign-only flag
    EXPECT_EQ(run("serve --workers 127.0.0.1:1"), 2); // dispatch-only flag
    EXPECT_EQ(run("dispatch coblist --isolate"), 2);  // campaign-only flag
    EXPECT_EQ(run("dispatch coblist --listen 7"), 2); // serve-only flag
    EXPECT_EQ(run("dispatch coblist --bind 0.0.0.0"), 2);  // serve-only flag
    // Keepalive deadlines land in int milliseconds; values past INT_MAX
    // would wrap negative and insta-kill every worker.
    EXPECT_EQ(run("dispatch coblist --workers 127.0.0.1:1 "
                  "--keepalive-ms 2147483648"),
              2);
    EXPECT_EQ(run("dispatch coblist --workers 127.0.0.1:1 "
                  "--dead-after-ms 99999999999"),
              2);
    // A bind address must be a literal IPv4 address.
    EXPECT_EQ(run("serve --listen 0 --bind not-an-address"), 1);
    // --workers is required; a campaign must never silently run local.
    EXPECT_EQ(run("dispatch coblist", "/tmp/stc_cli_dispatch_req.out"), 2);
    EXPECT_NE(slurp("/tmp/stc_cli_dispatch_req.out").find("--workers"),
              std::string::npos);
    // Unknown component fails before any socket work.
    EXPECT_EQ(run("dispatch nonesuch --workers 127.0.0.1:1"), 2);
    // Stray positional operands are usage errors everywhere but stats.
    EXPECT_EQ(run("campaign coblist stray-operand"), 2);
}

TEST_F(CliTest, DispatchFailsCleanlyWhenNoWorkerIsReachable) {
    // Loopback port 1: connection refused.  The coordinator must report
    // the dead fleet as an error (exit 1), not hang or crash.
    EXPECT_EQ(run("dispatch coblist --workers 127.0.0.1:1,127.0.0.1:2",
                  "/tmp/stc_cli_dispatch_dead.out"),
              1);
}

/// CLI tests against real `concat serve --listen 0 --once` daemons on
/// loopback.  Every daemon started is killed at teardown, so a failed
/// dispatch cannot leave one waiting for a session.
class CliFleetTest : public CliTest {
protected:
    void TearDown() override {
        for (const std::string& pid_file : pid_files_) {
            const std::string pid = slurp(pid_file);
            if (!pid.empty()) {
                (void)std::system(("kill " + pid + " 2>/dev/null").c_str());
            }
            std::remove(pid_file.c_str());
        }
    }

    /// Start one daemon; returns "127.0.0.1:PORT", or "" when it never
    /// announced its port.
    std::string start_daemon() {
        const std::string base = scratch("daemon" + std::to_string(pid_files_.size()));
        pid_files_.push_back(base + ".pid");
        // An earlier test in this process left a log under the same
        // name; its stale port line must not be read as this daemon's.
        std::remove((base + ".log").c_str());
        const std::string cmd = binary_ + " serve --listen 0 --once > " + base +
                                ".log 2>&1 & echo $! > " + base + ".pid";
        if (std::system(cmd.c_str()) != 0) return {};
        const std::string marker = "listening on port ";
        for (int tries = 0; tries < 100; ++tries) {
            const std::string log = slurp(base + ".log");
            const std::size_t at = log.find(marker);
            if (at != std::string::npos && log.find('\n', at) != std::string::npos) {
                return "127.0.0.1:" + std::to_string(std::stoi(
                                          log.substr(at + marker.size())));
            }
            ::usleep(100 * 1000);
        }
        return {};
    }

    /// A process-unique scratch path.
    static std::string scratch(const std::string& name) {
        return "/tmp/stc_cli_fleet_" + std::to_string(getpid()) + "_" + name;
    }

    static std::size_t count(const std::string& text, const std::string& needle) {
        std::size_t n = 0;
        for (std::size_t at = text.find(needle); at != std::string::npos;
             at = text.find(needle, at + 1)) {
            ++n;
        }
        return n;
    }

    std::vector<std::string> pid_files_;
};

TEST_F(CliFleetTest, DispatchResumeAppendsTelemetryAcrossRuns) {
    // FORMATS.md §5: a resumable campaign appends to its telemetry, so
    // both generations of a resumed dispatch stay on record.
    const std::string a = start_daemon();
    const std::string b = start_daemon();
    ASSERT_FALSE(a.empty() || b.empty());
    const std::string store = scratch("resume.store.jsonl");
    const std::string telemetry = scratch("resume.tel.jsonl");
    std::remove(store.c_str());
    std::remove(telemetry.c_str());
    const std::string args = "dispatch coblist --workers " + a + "," + b +
                             " --resume " + store + " --telemetry-out " +
                             telemetry;
    ASSERT_EQ(run(args + " -o " + scratch("first.txt")), 0);
    ASSERT_EQ(run(args + " -o " + scratch("second.txt"), scratch("second.err")), 0);
    EXPECT_NE(slurp(scratch("second.err")).find(" executed=0 "),
              std::string::npos);
    EXPECT_EQ(slurp(scratch("first.txt")), slurp(scratch("second.txt")));
    const std::string events = slurp(telemetry);
    EXPECT_EQ(count(events, "\"event\":\"campaign-start\""), 2u);
    EXPECT_EQ(count(events, "\"event\":\"campaign-end\""), 2u);
    for (const char* name : {"first.txt", "second.txt", "second.err"}) {
        std::remove(scratch(name).c_str());
    }
    std::remove(store.c_str());
    std::remove(telemetry.c_str());
}

TEST_F(CliFleetTest, StoresResumeAcrossDispatchAndIsolatedCampaign) {
    // One store format for every executor: a dispatch store resumes
    // under `campaign --isolate`, and a local store under `dispatch`,
    // each executing nothing and reporting byte-identically.
    const std::string a = start_daemon();
    const std::string b = start_daemon();
    ASSERT_FALSE(a.empty() || b.empty());
    const std::string remote_store = scratch("remote.store.jsonl");
    const std::string local_store = scratch("local.store.jsonl");
    std::remove(remote_store.c_str());
    std::remove(local_store.c_str());

    ASSERT_EQ(run("dispatch coblist --workers " + a + "," + b + " --resume " +
                  remote_store + " -o " + scratch("dispatched.txt")),
              0);
    ASSERT_EQ(run("campaign coblist --isolate --jobs 2 --resume " + remote_store +
                      " -o " + scratch("isolated.txt"),
                  scratch("isolated.err")),
              0);
    EXPECT_NE(slurp(scratch("isolated.err")).find(" executed=0 "),
              std::string::npos);
    EXPECT_EQ(slurp(scratch("dispatched.txt")), slurp(scratch("isolated.txt")));

    ASSERT_EQ(run("campaign coblist --jobs 2 --resume " + local_store + " -o " +
                  scratch("local.txt")),
              0);
    // Nothing is left to ship, so no daemon needs to be reachable.
    ASSERT_EQ(run("dispatch coblist --workers 127.0.0.1:1 --resume " +
                      local_store + " -o " + scratch("redispatched.txt"),
                  scratch("redispatched.err")),
              0);
    EXPECT_NE(slurp(scratch("redispatched.err")).find(" executed=0 "),
              std::string::npos);
    EXPECT_EQ(slurp(scratch("local.txt")), slurp(scratch("redispatched.txt")));
    EXPECT_EQ(slurp(scratch("local.txt")), slurp(scratch("dispatched.txt")));

    for (const char* name : {"dispatched.txt", "isolated.txt", "isolated.err",
                             "local.txt", "redispatched.txt", "redispatched.err"}) {
        std::remove(scratch(name).c_str());
    }
    std::remove(remote_store.c_str());
    std::remove(local_store.c_str());
}

TEST_F(CliTest, StatsAggregatesMultipleTelemetryFiles) {
    // A coordinator stream and a worker-daemon stream of the same
    // 2-item campaign: item 0 appears in both (the dedupe case), the
    // worker file tail is torn mid-write (the SIGKILL case).
    const std::string coord = "/tmp/stc_cli_stats_coord.jsonl";
    const std::string workerf = "/tmp/stc_cli_stats_worker.jsonl";
    {
        std::ofstream out(coord);
        out << R"({"event":"campaign-start","campaign":"fp1","class":"X",)"
            << R"("seed":7,"jobs":2,"mutants":2,"cases":1})" << "\n"
            << R"({"event":"worker-connect","worker":0,"endpoint":"a:1"})"
            << "\n"
            << R"({"event":"item-finish","item":0,"mutant":"m0",)"
            << R"("fate":"killed","reason":"assertion","worker":0,)"
            << R"("wall_ms":1.5,"shrunk":false})" << "\n"
            << R"({"event":"item-finish","item":1,"mutant":"m1",)"
            << R"("fate":"alive","reason":"none","worker":1,)"
            << R"("wall_ms":2.5,"shrunk":false})" << "\n";
    }
    {
        std::ofstream out(workerf);
        out << R"({"event":"worker-session","worker":0,"fingerprint":"fp1"})"
            << "\n"
            << R"({"event":"item-finish","item":0,"mutant":"m0",)"
            << R"("fate":"killed","reason":"assertion","worker":0,)"
            << R"("wall_ms":1.5,"shrunk":false})" << "\n"
            << R"({"event":"worker-disconn)";  // torn tail
    }

    ASSERT_EQ(run("stats " + coord + " " + workerf,
                  "/tmp/stc_cli_stats_multi.out"),
              0);
    const std::string out = slurp("/tmp/stc_cli_stats_multi.out");
    // Items dedupe by index across the two files: 2, not 3.
    EXPECT_NE(out.find("items: 2 classified"), std::string::npos);
    // Both perspectives tallied on the dispatch line, streams counted.
    EXPECT_NE(out.find("dispatch: 1 worker connect(s)"), std::string::npos);
    EXPECT_NE(out.find("1 serve session(s)"), std::string::npos);
    EXPECT_NE(out.find("2 stream(s)"), std::string::npos);
    // The torn tail was dropped, not fatal.
    EXPECT_NE(out.find("malformed, dropped"), std::string::npos);

    // A single-file invocation keeps the old report shape: no stream
    // count, and no dispatch line for streams without dispatch events.
    ASSERT_EQ(run("stats " + coord, "/tmp/stc_cli_stats_single.out"), 0);
    EXPECT_EQ(slurp("/tmp/stc_cli_stats_single.out").find("stream(s)"),
              std::string::npos);
}

TEST_F(CliTest, StatsJsonEmitsTheMachineReadableSummary) {
    const std::string telemetry = "/tmp/stc_cli_stats_json.jsonl";
    {
        std::ofstream out(telemetry);
        out << R"({"event":"campaign-start","campaign":"fp1","class":"X",)"
            << R"("seed":7,"jobs":2,"mutants":2,"cases":1})" << "\n"
            << R"({"event":"item-finish","item":0,)"
            << R"("mutant":"X::M@s0.IndVarRepReq.NULL","fate":"killed",)"
            << R"("reason":"assertion","worker":0,"wall_ms":1.5,)"
            << R"("shrunk":false})" << "\n"
            << R"({"event":"campaign-end","campaign":"fp1","items":2,)"
            << R"("executed":1,"killed":1,"equivalent":0,"not_covered":0,)"
            << R"("score":1.0,"workers":2,"wall_ms":3.0})" << "\n";
    }
    ASSERT_EQ(run("stats " + telemetry + " --json",
                  "/tmp/stc_cli_stats_json.out"),
              0);
    const std::string out = slurp("/tmp/stc_cli_stats_json.out");
    EXPECT_EQ(out.rfind("{\"class\":\"X\"", 0), 0u);  // JSON, not text report
    EXPECT_NE(out.find("\"fates\":{\"killed\":1}"), std::string::npos);
    EXPECT_NE(out.find("\"operator\":\"IndVarRepReq\""), std::string::npos);
    EXPECT_NE(out.find("\"final\":{\"killed\":1"), std::string::npos);
    std::remove(telemetry.c_str());
}

TEST_F(CliTest, StatsFollowRendersSnapshotsAndExitsAtCampaignEnd) {
    // Against an already-complete stream --follow renders at least one
    // snapshot, sees the campaign-end, and exits 0 on its own — the
    // test would hang here if the exit condition broke.
    const std::string telemetry = "/tmp/stc_cli_stats_follow.jsonl";
    {
        std::ofstream out(telemetry);
        out << R"({"event":"campaign-start","campaign":"fp1","class":"X",)"
            << R"("seed":7,"jobs":1,"mutants":1,"cases":1})" << "\n"
            << R"({"event":"item-finish","item":0,)"
            << R"("mutant":"X::M@s0.IndVarRepReq.NULL","fate":"killed",)"
            << R"("reason":"assertion","worker":0,"wall_ms":1.5,)"
            << R"("shrunk":false})" << "\n"
            << R"({"event":"campaign-end","campaign":"fp1","items":1,)"
            << R"("executed":1,"killed":1,"equivalent":0,"not_covered":0,)"
            << R"("score":1.0,"workers":1,"wall_ms":3.0})" << "\n";
    }
    ASSERT_EQ(run("stats --follow " + telemetry,
                  "/tmp/stc_cli_stats_follow.out"),
              0);
    const std::string out = slurp("/tmp/stc_cli_stats_follow.out");
    EXPECT_NE(out.find("follow: X  1/1 item(s)  killed=1"),
              std::string::npos);
    EXPECT_NE(out.find("[campaign complete]"), std::string::npos);

    // --follow is a single-file tail; a second operand is a usage error.
    EXPECT_EQ(run("stats --follow " + telemetry + " " + telemetry), 2);
    std::remove(telemetry.c_str());
}

TEST_F(CliTest, FollowProgressAndJsonFlagsArePerCommand) {
    EXPECT_EQ(run("stats /tmp/x.jsonl --progress"), 2);   // dispatch-only
    EXPECT_EQ(run("stats /tmp/x.jsonl --telemetry-interval-ms 5"), 2);
    EXPECT_EQ(run("dispatch coblist --follow"), 2);       // stats-only
    EXPECT_EQ(run("dispatch coblist --json"), 2);         // stats-only
    EXPECT_EQ(run("campaign coblist --progress"), 2);     // dispatch-only
    EXPECT_EQ(run("serve --follow"), 2);                  // stats-only
}

}  // namespace

// Regression replay of kill reproducers through the one corpus replay
// rule (stc/kill/reproduce.h).  The checked-in corpus (corpus/*.suite at
// the repo root) must keep replaying: a component-fault entry to its
// recorded verdict, a kill entry to its recorded kill — unmutated run
// passes, mutated run classifies to the recorded reason.  The same rule
// holds for every reproducer `concat campaign --shrink-corpus` writes and
// every entry `concat shrink` rewrites.  A drift here means the
// component, the replay machinery or the shrinker changed behaviour.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "stc/core/self_testable.h"
#include "stc/driver/runner.h"
#include "stc/driver/suite_io.h"
#include "stc/fuzz/corpus.h"
#include "stc/kill/reproduce.h"
#include "stc/mfc/component.h"
#include "stc/model/model.h"
#include "stc/mutation/mutant.h"
#include "stc/support/error.h"
#include "test_paths.h"

namespace stc {
namespace {

/// Replays corpus entries of the paper components under the rule.
class CorpusReplayer {
public:
    CorpusReplayer()
        : completions_(mfc::make_completions(pool_)),
          coblist_(mfc::coblist_spec(), mfc::coblist_binding()),
          sortable_(mfc::sortable_spec(), mfc::sortable_binding()) {
        coblist_.set_completions(completions_);
        sortable_.set_completions(completions_);
    }

    /// The rule's answer for `entry`, recompleted from its recorded seed
    /// exactly like any frozen suite.  `with_model` = false withholds the
    /// class's reference model from the rule.
    bool replays(fuzz::CorpusEntry entry, bool with_model = true) {
        const core::SelfTestableComponent& component =
            entry.suite.class_name == sortable_.spec().class_name ? sortable_
                                                                  : coblist_;
        EXPECT_EQ(entry.suite.class_name, component.spec().class_name);
        (void)driver::recomplete_suite(entry.suite, completions_,
                                       entry.suite.seed);
        kill::KillContext context;
        context.spec = &component.spec();
        context.registry = &component.registry();
        context.completions = &completions_;
        driver::RunnerOptions runner;
        if (with_model) runner.model = model::binding_for(entry.suite.class_name);
        const mutation::Mutant* mutant = find_mutant(entry);
        return kill::replay_rule(context, runner, mutant, entry)(entry.reproducer());
    }

private:
    const mutation::Mutant* find_mutant(const fuzz::CorpusEntry& entry) {
        if (entry.mutant_id.empty()) return nullptr;
        auto& mutants = mutants_[entry.suite.class_name];
        if (mutants.empty()) {
            mutants = mutation::enumerate_mutants(mfc::descriptors(),
                                                  entry.suite.class_name);
        }
        for (const auto& m : mutants) {
            if (m.id() == entry.mutant_id) return &m;
        }
        ADD_FAILURE() << "corpus entry names unknown mutant " << entry.mutant_id;
        return nullptr;
    }

    mfc::ElementPool pool_;
    driver::CompletionRegistry completions_;
    core::SelfTestableComponent coblist_;
    core::SelfTestableComponent sortable_;
    std::map<std::string, std::vector<mutation::Mutant>> mutants_;
};

TEST(FuzzCorpus, CheckedInEntriesReplayTheirKillsAndVerdicts) {
    const auto paths =
        fuzz::list_corpus(std::string(STC_SOURCE_DIR) + "/corpus");
    // The repo ships reproducers for the paper components; an empty list
    // means the corpus went missing and this test silently tested nothing.
    ASSERT_FALSE(paths.empty());

    CorpusReplayer replayer;
    std::size_t kills = 0;
    std::size_t model_kills = 0;
    for (const std::string& path : paths) {
        SCOPED_TRACE(path);
        const fuzz::CorpusEntry entry = fuzz::load_entry_file(path);
        EXPECT_TRUE(replayer.replays(entry))
            << "recorded " << driver::to_string(entry.verdict) << " / reason '"
            << entry.kill_reason << "'";
        if (entry.kill_reason.empty()) continue;
        ++kills;
        // The model is attached exactly for model-divergence kills: they
        // need it, and every other kill reproduces without it.
        const bool model_kill =
            kill::entry_reason(entry) == oracle::KillReason::ModelDivergence;
        model_kills += model_kill ? 1 : 0;
        EXPECT_EQ(replayer.replays(entry, /*with_model=*/false), !model_kill);
    }
    EXPECT_EQ(kills, 15u);
    EXPECT_EQ(model_kills, 4u);
}

TEST(FuzzCorpus, UnknownKillReasonIsAnError) {
    fuzz::CorpusEntry entry;
    EXPECT_EQ(kill::entry_reason(entry), oracle::KillReason::None);
    entry.kill_reason = "output-diff";
    EXPECT_EQ(kill::entry_reason(entry), oracle::KillReason::OutputDiff);
    for (const char* bad : {"alive", "outputdiff", "Crash", " crash"}) {
        entry.kill_reason = bad;
        EXPECT_THROW((void)kill::entry_reason(entry), Error) << bad;
    }
}

/// Drives the concat binary; skipped when it is not built.
class KillReproducerCli : public ::testing::Test {
protected:
    void SetUp() override {
        binary_ = std::string(STC_BUILD_DIR) + "/tools/concat";
        if (!std::ifstream(binary_).good()) GTEST_SKIP() << "concat binary not built";
        dir_ = std::filesystem::path(::testing::TempDir()) /
               ("stc_kill_reproducer_" + std::to_string(getpid()));
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override {
        if (!dir_.empty()) std::filesystem::remove_all(dir_);
    }

    int run(const std::string& args) const {
        const int status =
            std::system((binary_ + " " + args + " > /dev/null 2>&1").c_str());
        return status == -1 ? -1 : WEXITSTATUS(status);
    }

    std::string binary_;
    std::filesystem::path dir_;
};

TEST_F(KillReproducerCli, EveryCampaignReproducerReplaysItsKill) {
    CorpusReplayer replayer;
    for (const char* campaign : {"sortable", "coblist", "coblist --model"}) {
        SCOPED_TRACE(campaign);
        const std::string corpus = (dir_ / "corpus").string();
        std::filesystem::remove_all(corpus);
        ASSERT_EQ(run(std::string("campaign ") + campaign +
                      " --jobs 2 --shrink-corpus " + corpus),
                  0);
        const auto paths = fuzz::list_corpus(corpus);
        ASSERT_FALSE(paths.empty());
        for (const std::string& path : paths) {
            const fuzz::CorpusEntry entry = fuzz::load_entry_file(path);
            EXPECT_FALSE(entry.kill_reason.empty()) << path;
            EXPECT_TRUE(replayer.replays(entry)) << path;
            // The recorded verdict is the mutated run's, divergence
            // promoted, so a model-divergence kill records that verdict.
            if (kill::entry_reason(entry) == oracle::KillReason::ModelDivergence) {
                EXPECT_EQ(entry.verdict, driver::Verdict::ModelDivergence) << path;
            }
        }
    }
}

TEST_F(KillReproducerCli, ShrinkingAnOutputDiffEntryKeepsItsKill) {
    CorpusReplayer replayer;
    const std::map<std::string, std::string> entries = {
        {"CObList-pass-19211da3e072ae5b.suite", "coblist"},
        {"CObList-pass-20fda02c3e1cb846.suite", "coblist"},
        {"CSortableObList-pass-041038951bc6ca40.suite", "sortable"},
    };
    for (const auto& [name, component] : entries) {
        SCOPED_TRACE(name);
        const std::filesystem::path corpus = dir_ / name;
        std::filesystem::create_directories(corpus);
        const std::filesystem::path input = corpus / name;
        std::filesystem::copy_file(
            std::filesystem::path(STC_SOURCE_DIR) / "corpus" / name, input);
        ASSERT_EQ(fuzz::load_entry_file(input.string()).kill_reason, "output-diff");

        const int rc = run("shrink " + component + " --case " + input.string() +
                           " --corpus " + corpus.string());
        ASSERT_TRUE(rc == 0 || rc == 1) << rc;
        if (rc == 1) continue;  // no kill-preserving entry survived persistence
        const auto written = fuzz::list_corpus(corpus.string());
        ASSERT_EQ(written.size(), 1u);  // the superseded input is removed
        const fuzz::CorpusEntry shrunk = fuzz::load_entry_file(written.front());
        EXPECT_EQ(shrunk.kill_reason, "output-diff");
        EXPECT_TRUE(replayer.replays(shrunk));
    }
}

}  // namespace
}  // namespace stc

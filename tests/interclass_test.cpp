#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "stc/codegen/driver_codegen.h"
#include "test_paths.h"

#include "stc/interclass/system_driver.h"
#include "stc/interclass/system_io.h"
#include "stc/interclass/system_spec.h"
#include "stc/mutation/engine.h"
#include "stc/oracle/oracle.h"
#include "stc/reflect/binder.h"
#include "stc/support/error.h"
#include "wallet_component.h"

namespace stc::interclass {
namespace {

using examples::ledger_spec;
using examples::register_wallet_classes;
using examples::wallet_spec;
using examples::wallet_system_spec;

// ------------------------------------------------------------- system spec

TEST(SystemSpec, WalletSystemValidates) {
    const auto system = wallet_system_spec();
    EXPECT_TRUE(system.validate().empty());
    EXPECT_EQ(system.roles.size(), 2u);
    EXPECT_NE(system.find_role("wallet"), nullptr);
    EXPECT_NE(system.find_role("audit"), nullptr);
    EXPECT_EQ(system.find_role("ghost"), nullptr);
    EXPECT_NE(system.spec_of("Wallet"), nullptr);
    EXPECT_EQ(system.role_providing("Ledger"), "audit");
    EXPECT_EQ(system.role_providing("Unknown"), "");
}

TEST(SystemSpec, BuildTfmEncodesRoleMethods) {
    const auto graph = wallet_system_spec().build_tfm();
    EXPECT_EQ(graph.node_count(), 6u);
    EXPECT_EQ(graph.edge_count(), 9u);
    const auto n5 = graph.find_node("s5");
    ASSERT_TRUE(n5.has_value());
    EXPECT_EQ(graph.node(*n5).method_ids,
              (std::vector<std::string>{"wallet.m6", "audit.m3"}));
}

TEST(SystemSpec, ValidationDetectsProblems) {
    // Unknown role in a node call.
    {
        SystemSpecBuilder b("Bad");
        b.class_spec(wallet_spec());
        b.role("wallet", "Wallet", "m1");
        b.node("s1", true, {{"ghost", "m4"}});
        EXPECT_THROW((void)b.build(), SpecError);
    }
    // Missing class spec for a role.
    {
        SystemSpecBuilder b("Bad");
        b.role("wallet", "Wallet", "m1");
        EXPECT_THROW((void)b.build(), SpecError);
    }
    // Constructor id is not a constructor.
    {
        SystemSpecBuilder b("Bad");
        b.class_spec(wallet_spec());
        b.role("wallet", "Wallet", "m4");  // Deposit
        EXPECT_THROW((void)b.build(), SpecError);
    }
    // Node calls must not name constructors/destructors.
    {
        SystemSpecBuilder b("Bad");
        b.class_spec(wallet_spec());
        b.role("wallet", "Wallet", "m1");
        b.node("s1", true, {{"wallet", "m2"}});  // destructor
        EXPECT_THROW((void)b.build(), SpecError);
    }
    // No start node.
    {
        SystemSpecBuilder b("Bad");
        b.class_spec(wallet_spec());
        b.role("wallet", "Wallet", "m1");
        b.node("s1", false, {{"wallet", "m4"}});
        EXPECT_THROW((void)b.build(), SpecError);
    }
}

// ------------------------------------------------------------- generation

class SystemGen : public ::testing::Test {
protected:
    SystemGen() : system_(wallet_system_spec()) {
        register_wallet_classes(registry_);
    }

    SystemSpec system_;
    reflect::Registry registry_;
};

TEST_F(SystemGen, GeneratesOneCasePerTransaction) {
    const auto suite = SystemDriverGenerator(system_).generate();
    EXPECT_EQ(suite.component_name, "AuditedWallet");
    EXPECT_EQ(suite.size(), suite.transactions_enumerated);
    EXPECT_GT(suite.size(), 0u);
}

TEST_F(SystemGen, SetupConstructsEveryRoleInOrder) {
    const auto suite = SystemDriverGenerator(system_).generate();
    for (const auto& tc : suite.cases) {
        ASSERT_EQ(tc.setup.size(), 2u);
        EXPECT_EQ(tc.setup[0].role, "wallet");
        EXPECT_EQ(tc.setup[1].role, "audit");
        EXPECT_FALSE(tc.needs_completion);
    }
}

TEST_F(SystemGen, RoleReferenceBoundForInterclassParameters) {
    const auto suite = SystemDriverGenerator(system_).generate();
    bool saw_attach = false;
    for (const auto& tc : suite.cases) {
        for (const auto& call : tc.body) {
            if (call.method_name != "Attach") continue;
            saw_attach = true;
            ASSERT_EQ(call.arguments.size(), 1u);
            EXPECT_TRUE(call.arguments[0].is_role_ref());
            EXPECT_EQ(call.arguments[0].role_ref, "audit");
            EXPECT_EQ(call.render(), "wallet.Attach(@audit)");
        }
    }
    EXPECT_TRUE(saw_attach);
}

TEST_F(SystemGen, ValueArgumentsDrawnFromDomains) {
    const auto suite = SystemDriverGenerator(system_).generate();
    for (const auto& tc : suite.cases) {
        for (const auto& call : tc.body) {
            if (call.method_name == "Deposit" || call.method_name == "Withdraw") {
                ASSERT_EQ(call.arguments.size(), 1u);
                const auto amount = call.arguments[0].value.as_int();
                EXPECT_GE(amount, 1);
                EXPECT_LE(amount, 100);
            }
        }
    }
}

TEST_F(SystemGen, DeterministicPerSeed) {
    SystemGeneratorOptions options;
    options.seed = 11;
    const auto a = SystemDriverGenerator(system_, options).generate();
    const auto b = SystemDriverGenerator(system_, options).generate();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a.cases[i].body.size(), b.cases[i].body.size());
        for (std::size_t c = 0; c < a.cases[i].body.size(); ++c) {
            EXPECT_EQ(a.cases[i].body[c].render(), b.cases[i].body[c].render());
        }
    }
}

// --------------------------------------------------------------- execution

TEST_F(SystemGen, HealthySystemRunsGreen) {
    const auto suite = SystemDriverGenerator(system_).generate();
    const SystemRunner runner(registry_);
    const auto result = runner.run(system_, suite);
    EXPECT_EQ(result.failed(), 0u);
    EXPECT_EQ(result.passed(), suite.size());
    // Reports contain both roles' state.
    for (const auto& r : result.results) {
        EXPECT_NE(r.report.find("Wallet{"), std::string::npos);
        EXPECT_NE(r.report.find("Ledger{"), std::string::npos);
    }
}

TEST_F(SystemGen, CrossClassConsistencyHoldsOnAuditedPaths) {
    const auto suite = SystemDriverGenerator(system_).generate();
    const SystemRunner runner(registry_);
    const auto result = runner.run(system_, suite);
    std::size_t audited = 0;
    for (const auto& r : result.results) {
        if (r.report.find("audited=yes") == std::string::npos) continue;
        ++audited;
        const auto balance =
            std::stoi(r.report.substr(r.report.find("balance=") + 8));
        const auto total = std::stoi(r.report.substr(r.report.find("total=") + 6));
        EXPECT_EQ(balance, total) << r.report;
    }
    EXPECT_GT(audited, 0u);
}

TEST_F(SystemGen, FaultyCollaborationIsCaught) {
    // A mis-wired Deposit that books twice: each class's own invariant
    // still holds, but the golden-output oracle sees the divergence
    // (balance drifts from the expected value and from the ledger total).
    reflect::Registry broken;
    {
        reflect::Binder<examples::Wallet> b("Wallet");
        b.ctor<>();
        b.method("Attach", &examples::Wallet::Attach);
        b.custom("Deposit", 1, [](examples::Wallet& w, const reflect::Args& args) {
            const int amount = static_cast<int>(args.at(0).as_int());
            w.Deposit(amount);
            w.Deposit(amount);  // faulty double-deposit
            return domain::Value{};
        });
        b.method("Withdraw", &examples::Wallet::Withdraw);
        b.method("Balance", &examples::Wallet::Balance);
        broken.add(b.take());
    }
    {
        reflect::Binder<examples::Ledger> b("Ledger");
        b.ctor<>();
        b.method("Count", &examples::Ledger::Count);
        b.method("Total", &examples::Ledger::Total);
        broken.add(b.take());
    }

    const auto suite = SystemDriverGenerator(system_).generate();
    const auto golden = oracle::GoldenRecord::from(
        SystemRunner(registry_).run(system_, suite));
    const auto observed = SystemRunner(broken).run(system_, suite);
    EXPECT_NE(oracle::classify_suite(golden, observed), oracle::KillReason::None);
}

TEST_F(SystemGen, MutationEngineRunsOverSystemSuites) {
    // The §6 argument, as a regression check: the ledger write-through
    // mutants of Wallet::Deposit are killed by the system suite (which
    // observes the Ledger role) but not by an intraclass Wallet suite.
    const auto mutants =
        mutation::enumerate_mutants(examples::wallet_descriptors(), "Wallet");
    ASSERT_FALSE(mutants.empty());

    // Intraclass suite: ledger completed but unobserved.
    examples::LedgerPool ledgers;
    const auto completions = ledgers.completions();
    driver::DriverGenerator intraclass_gen(examples::wallet_intraclass_spec());
    intraclass_gen.completions(&completions);
    const auto intraclass_suite = intraclass_gen.generate();
    const driver::TestRunner runner(registry_);

    const auto system_suite = SystemDriverGenerator(system_).generate();
    const SystemRunner system_runner(registry_);

    const mutation::MutationEngine engine(registry_);
    const auto intra = engine.run_with(
        [&] { return runner.run(intraclass_suite); }, mutants);
    const auto inter = engine.run_with(
        [&] { return system_runner.run(system_, system_suite); }, mutants);

    ASSERT_TRUE(intra.baseline_clean);
    ASSERT_TRUE(inter.baseline_clean);
    EXPECT_GT(inter.score(), intra.score());

    // The canonical interaction fault: Deposit's ledger pointer replaced
    // by NULL (write-through silently dropped).
    const auto is_writethrough_null = [](const mutation::Mutant& m) {
        return m.method->method_name() == "Deposit" && m.site_index == 2 &&
               m.op == mutation::Operator::IndVarRepReq;
    };
    for (std::size_t i = 0; i < mutants.size(); ++i) {
        if (!is_writethrough_null(mutants[i])) continue;
        EXPECT_NE(intra.outcomes[i].fate, mutation::MutantFate::Killed)
            << "intraclass suite cannot observe the dropped write-through";
        EXPECT_EQ(inter.outcomes[i].fate, mutation::MutantFate::Killed)
            << "interclass suite observes the Ledger role";
    }
}

TEST_F(SystemGen, SystemSuiteSurvivesSaveLoadAndRerunsIdentically) {
    const auto suite = SystemDriverGenerator(system_).generate();

    std::stringstream buffer;
    save_system_suite(buffer, suite);
    const auto loaded = load_system_suite(buffer);

    EXPECT_EQ(loaded.component_name, suite.component_name);
    EXPECT_EQ(loaded.seed, suite.seed);
    ASSERT_EQ(loaded.size(), suite.size());
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const auto& a = suite.cases[i];
        const auto& b = loaded.cases[i];
        EXPECT_EQ(b.id, a.id);
        EXPECT_EQ(b.transaction_text, a.transaction_text);
        ASSERT_EQ(b.setup.size(), a.setup.size());
        ASSERT_EQ(b.body.size(), a.body.size());
        for (std::size_t c = 0; c < a.body.size(); ++c) {
            EXPECT_EQ(b.body[c].render(), a.body[c].render());
            EXPECT_EQ(b.body[c].method_id, a.body[c].method_id);
        }
    }

    // Role references rebind to live objects on replay: identical run.
    const SystemRunner runner(registry_);
    const auto original = runner.run(system_, suite);
    const auto replay = runner.run(system_, loaded);
    ASSERT_EQ(replay.results.size(), original.results.size());
    for (std::size_t i = 0; i < original.results.size(); ++i) {
        EXPECT_EQ(replay.results[i].verdict, original.results[i].verdict);
        EXPECT_EQ(replay.results[i].report, original.results[i].report);
    }

    // Round trip is byte-stable.
    std::stringstream second;
    save_system_suite(second, loaded);
    EXPECT_EQ(second.str(), buffer.str());
}

TEST_F(SystemGen, SystemSuiteIoRejectsMalformedInput) {
    std::stringstream bad_magic("nope\n");
    EXPECT_THROW((void)load_system_suite(bad_magic), Error);
    std::stringstream orphan("concat-system-suite 1\ncallx wallet|m4|Deposit|I:1\n");
    EXPECT_THROW((void)load_system_suite(orphan), Error);
    std::stringstream short_call(
        "concat-system-suite 1\ncase STC0|t|0|0\nsetup wallet|m1\nend\n");
    EXPECT_THROW((void)load_system_suite(short_call), Error);
    // Malformed numbers and escapes are errors, not aborts.
    for (const char* bad : {"seed banana\n",
                            "model 1 x 3\n",
                            "case STC0|t|0,zz|0\nend\n",
                            "case STC0|t|0|0\ncallx wallet|m4|Deposit|I:zz\nend\n",
                            "case STC0|t|0|0\ncallx wallet|m4|Deposit|R:1.5x\nend\n",
                            "case STC0|t|0|0\ncallx wallet|m4|Deposit|S:%zz\nend\n",
                            "case STC0|t|0|0\ncallx @%zz|m4|Deposit\nend\n"}) {
        std::stringstream in(std::string("concat-system-suite 1\n") + bad);
        EXPECT_THROW((void)load_system_suite(in), Error) << bad;
    }
}

TEST_F(SystemGen, MissingBindingIsSetupError) {
    reflect::Registry incomplete;
    {
        reflect::Binder<examples::Wallet> b("Wallet");
        b.ctor<>();
        incomplete.add(b.take());
    }
    const auto suite = SystemDriverGenerator(system_).generate();
    const SystemRunner runner(incomplete);
    const auto result = runner.run(system_, suite);
    EXPECT_GT(result.count(driver::Verdict::SetupError), 0u);
}

TEST_F(SystemGen, SystemCodegenEmitsRunnableShape) {
    SystemGeneratorOptions options;
    options.enumeration.max_node_visits = 1;
    const auto suite = SystemDriverGenerator(system_, options).generate();

    codegen::CodegenOptions cg;
    cg.includes = {"wallet.h"};
    cg.usings = {"stc::examples"};
    cg.log_file = "system_result.txt";
    const codegen::SystemDriverCodegen generator(system_, cg);
    const std::string src = generator.suite_source(suite);

    // Roles as stack objects, role refs as addresses, invariants around
    // calls, Fig. 6-style logging.
    EXPECT_NE(src.find("Wallet wallet_obj;"), std::string::npos);
    EXPECT_NE(src.find("Ledger audit_obj;"), std::string::npos);
    EXPECT_NE(src.find("wallet_obj.Attach(&audit_obj)"), std::string::npos);
    EXPECT_NE(src.find("wallet_obj.InvariantTest();"), std::string::npos);
    EXPECT_NE(src.find("audit_obj.InvariantTest();"), std::string::npos);
    EXPECT_NE(src.find("catch (const std::exception& er)"), std::string::npos);
    EXPECT_NE(src.find("int main() {"), std::string::npos);
    EXPECT_NE(src.find("(void)wallet_obj.Withdraw("), std::string::npos);
}

TEST_F(SystemGen, GeneratedSystemDriverCompilesAndRuns) {
    if (std::system("c++ --version > /dev/null 2>&1") != 0) {
        GTEST_SKIP() << "no c++ compiler on PATH";
    }
    SystemGeneratorOptions options;
    options.enumeration.max_node_visits = 1;
    const auto suite = SystemDriverGenerator(system_, options).generate();

    codegen::CodegenOptions cg;
    cg.includes = {"wallet.h"};
    cg.usings = {"stc::examples"};
    cg.log_file = "system_result.txt";
    const codegen::SystemDriverCodegen generator(system_, cg);

    const std::string root(STC_SOURCE_DIR);
    {
        std::ofstream out("/tmp/stc_system_driver.cpp");
        out << generator.suite_source(suite);
    }
    const std::string compile =
        "c++ -std=c++20 -I " + root + "/examples/wallet -I " + root +
        "/src/bit/include -I " + root + "/src/support/include -I " + root +
        "/src/mutation/include -I " + root + "/src/domain/include -I " + root +
        "/src/driver/include -I " + root + "/src/tspec/include -I " + root +
        "/src/tfm/include -I " + root + "/src/reflect/include "
        "/tmp/stc_system_driver.cpp " +
        root + "/examples/wallet/wallet.cpp " + root + "/src/bit/bit.cpp " + root +
        "/src/mutation/controller.cpp " + root + "/src/mutation/frame.cpp " + root +
        "/src/mutation/descriptor.cpp " + root + "/src/mutation/mutant.cpp " + root +
        "/src/support/strings.cpp "
        "-o /tmp/stc_system_driver > /tmp/stc_system_cc.log 2>&1";
    ASSERT_EQ(std::system(compile.c_str()), 0)
        << "generated system driver failed to compile";
    ASSERT_EQ(std::system(
                  "cd /tmp && rm -f system_result.txt && ./stc_system_driver"),
              0);
    std::ifstream log("/tmp/system_result.txt");
    ASSERT_TRUE(log.good());
    std::stringstream content;
    content << log.rdbuf();
    EXPECT_NE(content.str().find("OK!"), std::string::npos);
    EXPECT_NE(content.str().find("Wallet{"), std::string::npos);
}

}  // namespace
}  // namespace stc::interclass

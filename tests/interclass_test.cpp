#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "stc/codegen/driver_codegen.h"
#include "test_paths.h"

#include "stc/driver/suite_io.h"
#include "stc/interclass/lower.h"
#include "stc/kill/search.h"
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
    // The lowered TFM: the system's nodes and edges plus one birth node
    // linked to every system start node.
    const auto graph = examples::audited_wallet().spec.build_tfm();
    EXPECT_EQ(graph.node_count(), 7u);
    EXPECT_EQ(graph.edge_count(), 11u);
    const auto n5 = graph.find_node("s5");
    ASSERT_TRUE(n5.has_value());
    EXPECT_EQ(graph.node(*n5).method_ids,
              (std::vector<std::string>{"wallet.m6", "audit.m3"}));
    const auto birth = graph.find_node("birth");
    ASSERT_TRUE(birth.has_value());
    EXPECT_TRUE(graph.node(*birth).is_birth);
    EXPECT_FALSE(graph.node(*graph.find_node("s1")).is_birth);
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
    // A node that calls nothing.
    {
        SystemSpecBuilder b("Bad");
        b.class_spec(wallet_spec());
        b.role("wallet", "Wallet", "m1");
        b.node("s1", true, {});
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

/// The AuditedWallet system lowered to one class and driven by the
/// ordinary single-class generator and runner.
class SystemGen : public ::testing::Test {
protected:
    SystemGen() : system_(wallet_system_spec()) {
        LoweredSystem lowered = examples::audited_wallet();
        spec_ = std::move(lowered.spec);
        registry_.add(std::move(lowered.binding));
    }

    [[nodiscard]] driver::TestSuite generate(driver::GeneratorOptions options = {}) const {
        return driver::DriverGenerator(spec_, options).generate();
    }

    SystemSpec system_;
    tspec::ComponentSpec spec_;
    reflect::Registry registry_;
};

TEST_F(SystemGen, GeneratesOneCasePerTransaction) {
    const auto suite = generate();
    EXPECT_EQ(suite.class_name, "AuditedWallet");
    EXPECT_EQ(suite.size(), suite.transactions_enumerated);
    EXPECT_EQ(suite.size(), 13u);
}

TEST_F(SystemGen, SetupConstructsEveryRoleInOrder) {
    const auto suite = generate();
    const auto result = driver::TestRunner(registry_).run(suite);
    ASSERT_EQ(result.results.size(), suite.size());
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const auto& ctor = suite.cases[i].constructor_call();
        EXPECT_EQ(ctor.method_name, "AuditedWallet");
        EXPECT_TRUE(ctor.arguments.empty());
        EXPECT_FALSE(suite.cases[i].needs_completion);
        // One report line per role, in declaration order.
        const std::string& report = result.results[i].report;
        const auto wallet = report.find("wallet: Wallet{");
        const auto audit = report.find("audit: Ledger{");
        ASSERT_NE(wallet, std::string::npos) << report;
        ASSERT_NE(audit, std::string::npos) << report;
        EXPECT_LT(wallet, audit);
    }

    // Roles are built in declaration order and torn down in reverse.
    std::vector<std::string> lifecycle;
    reflect::Registry traced;
    for (reflect::ClassBinding b : {examples::wallet_binding(), examples::ledger_binding()}) {
        const std::string name = b.name();
        b.add_constructor(0, [&lifecycle, name, inner = b](const reflect::Args& args) {
            lifecycle.push_back("+" + name);
            return inner.construct(args);
        });
        b.set_destructor([&lifecycle, name, inner = b](void* object) {
            lifecycle.push_back("-" + name);
            inner.destroy(object);
        });
        traced.add(std::move(b));
    }
    reflect::Registry system;
    system.add(lower(system_, traced).binding);
    (void)driver::TestRunner(system).run_case(system.at("AuditedWallet"), suite.cases[0]);
    EXPECT_EQ(lifecycle,
              (std::vector<std::string>{"+Wallet", "+Ledger", "-Ledger", "-Wallet"}));
}

TEST_F(SystemGen, RoleReferenceBoundForInterclassParameters) {
    // wallet.Attach's Ledger parameter is a role reference: dropped from
    // the lowered signature and bound to the live audit object on call.
    const auto suite = generate();
    const auto result = driver::TestRunner(registry_).run(suite);
    std::size_t attached = 0;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        bool attaches = false;
        for (const auto& call : suite.cases[i].calls) {
            if (call.method_name != "wallet.Attach") continue;
            attaches = true;
            EXPECT_TRUE(call.arguments.empty());
            EXPECT_EQ(call.render(), "wallet.Attach()");
        }
        attached += attaches ? 1 : 0;
        EXPECT_EQ(result.results[i].report.find("audited=yes") != std::string::npos,
                  attaches)
            << result.results[i].report;
    }
    EXPECT_GT(attached, 0u);
}

TEST_F(SystemGen, ValueArgumentsDrawnFromDomains) {
    const auto suite = generate();
    for (const auto& tc : suite.cases) {
        for (const auto& call : tc.calls) {
            if (call.method_name == "wallet.Deposit" ||
                call.method_name == "wallet.Withdraw") {
                ASSERT_EQ(call.arguments.size(), 1u);
                const auto amount = call.arguments[0].as_int();
                EXPECT_GE(amount, 1);
                EXPECT_LE(amount, 100);
            }
        }
    }
}

TEST_F(SystemGen, DeterministicPerSeed) {
    driver::GeneratorOptions options;
    options.seed = 11;
    const auto a = generate(options);
    const auto b = generate(options);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a.cases[i].calls.size(), b.cases[i].calls.size());
        for (std::size_t c = 0; c < a.cases[i].calls.size(); ++c) {
            EXPECT_EQ(a.cases[i].calls[c].render(), b.cases[i].calls[c].render());
        }
    }
}

// --------------------------------------------------------------- execution

TEST_F(SystemGen, HealthySystemRunsGreen) {
    const auto suite = generate();
    const auto result = driver::TestRunner(registry_).run(suite);
    EXPECT_EQ(result.failed(), 0u);
    EXPECT_EQ(result.passed(), suite.size());
    // Reports contain both roles' state.
    for (const auto& r : result.results) {
        EXPECT_NE(r.report.find("Wallet{"), std::string::npos);
        EXPECT_NE(r.report.find("Ledger{"), std::string::npos);
    }
}

TEST_F(SystemGen, CrossClassConsistencyHoldsOnAuditedPaths) {
    const auto result = driver::TestRunner(registry_).run(generate());
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
    reflect::Registry broken_roles;
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
        broken_roles.add(b.take());
    }
    broken_roles.add(examples::ledger_binding());
    reflect::Registry broken;
    broken.add(lower(system_, broken_roles).binding);

    const auto suite = generate();
    const auto golden =
        oracle::GoldenRecord::from(driver::TestRunner(registry_).run(suite));
    const auto observed = driver::TestRunner(broken).run(suite);
    EXPECT_NE(oracle::classify_suite(golden, observed), oracle::KillReason::None);
}

TEST_F(SystemGen, MutationEngineRunsOverSystemSuites) {
    // The §6 argument, as a regression check: the ledger write-through
    // mutant of Wallet::Deposit is killed by the system suite (which
    // observes the Ledger role) but not by an intraclass Wallet suite —
    // both through the same MutationEngine::run.
    const auto mutants =
        mutation::enumerate_mutants(examples::wallet_descriptors(), "Wallet");
    ASSERT_FALSE(mutants.empty());

    // Intraclass suite: ledger completed but unobserved.
    reflect::Registry classes;
    register_wallet_classes(classes);
    examples::LedgerPool ledgers;
    const auto completions = ledgers.completions();
    driver::DriverGenerator intraclass_gen(examples::wallet_intraclass_spec());
    intraclass_gen.completions(&completions);
    const auto intra =
        mutation::MutationEngine(classes).run(intraclass_gen.generate(), mutants);
    const auto inter = mutation::MutationEngine(registry_).run(generate(), mutants);

    ASSERT_TRUE(intra.baseline_clean);
    ASSERT_TRUE(inter.baseline_clean);
    EXPECT_GT(inter.score(), intra.score());

    // The canonical interaction fault: Deposit's ledger pointer replaced
    // by NULL (write-through silently dropped).
    bool seen = false;
    for (std::size_t i = 0; i < mutants.size(); ++i) {
        if (mutants[i].id() != "Wallet::Deposit@s2.IndVarRepReq.NULL") continue;
        seen = true;
        EXPECT_NE(intra.outcomes[i].fate, mutation::MutantFate::Killed)
            << "intraclass suite cannot observe the dropped write-through";
        EXPECT_EQ(inter.outcomes[i].fate, mutation::MutantFate::Killed)
            << "interclass suite observes the Ledger role";
    }
    EXPECT_TRUE(seen);
}

TEST_F(SystemGen, KillSearchArmsRoleMethodSites) {
    // The mutant names Wallet's method; the lowered spec calls it
    // "wallet.Deposit".  The search must still find and arm the site.
    const auto mutants =
        mutation::enumerate_mutants(examples::wallet_descriptors(), "Wallet");
    const auto find = [&](const std::string& id) {
        for (const auto& m : mutants) {
            if (m.id() == id) return m;
        }
        throw Error("no mutant " + id);
    };
    const kill::ProductSearch search(spec_, registry_, nullptr, {});
    const auto killed = search.find_killer(find("Wallet::Deposit@s2.IndVarRepReq.NULL"));
    EXPECT_EQ(killed.status, kill::SearchStatus::Verified);
    EXPECT_GT(killed.stats.armed_states, 0u);
    const auto survivor = search.find_killer(find("Wallet::Withdraw@s4.IndVarRepReq.ONE"));
    EXPECT_NE(survivor.status, kill::SearchStatus::SiteUnreachable);
    EXPECT_GT(survivor.stats.armed_states, 0u);
}

TEST_F(SystemGen, SystemSuiteSurvivesSaveLoadAndRerunsIdentically) {
    // A lowered system suite is an ordinary concat-suite file.
    const auto suite = generate();
    std::stringstream buffer;
    driver::save_suite(buffer, suite);
    const auto loaded = driver::load_suite(buffer);

    EXPECT_EQ(loaded.class_name, suite.class_name);
    EXPECT_EQ(loaded.seed, suite.seed);
    ASSERT_EQ(loaded.size(), suite.size());
    for (std::size_t i = 0; i < suite.size(); ++i) {
        ASSERT_EQ(loaded.cases[i].calls.size(), suite.cases[i].calls.size());
        for (std::size_t c = 0; c < suite.cases[i].calls.size(); ++c) {
            EXPECT_EQ(loaded.cases[i].calls[c].render(), suite.cases[i].calls[c].render());
            EXPECT_EQ(loaded.cases[i].calls[c].method_id,
                      suite.cases[i].calls[c].method_id);
        }
    }

    // Role references rebind to live objects on replay: identical run.
    const driver::TestRunner runner(registry_);
    const auto original = runner.run(suite);
    const auto replay = runner.run(loaded);
    ASSERT_EQ(replay.results.size(), original.results.size());
    for (std::size_t i = 0; i < original.results.size(); ++i) {
        EXPECT_EQ(replay.results[i].verdict, original.results[i].verdict);
        EXPECT_EQ(replay.results[i].report, original.results[i].report);
    }
    EXPECT_EQ(replay.log, original.log);

    // Round trip is byte-stable.
    std::stringstream second;
    driver::save_suite(second, loaded);
    EXPECT_EQ(second.str(), buffer.str());
}

TEST_F(SystemGen, MissingBindingIsSetupError) {
    // A role class with no binding at all: lowering names the class.
    reflect::Registry wallet_only;
    wallet_only.add(examples::wallet_binding());
    try {
        (void)lower(system_, wallet_only);
        FAIL() << "lowering without a Ledger binding must throw";
    } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("Ledger"), std::string::npos) << e.what();
    }

    // A bound class missing a method: the calls that need it are setup
    // errors at run time, as for any single class.
    reflect::Registry incomplete_roles;
    {
        reflect::Binder<examples::Wallet> b("Wallet");
        b.ctor<>();
        incomplete_roles.add(b.take());
    }
    incomplete_roles.add(examples::ledger_binding());
    reflect::Registry incomplete;
    incomplete.add(lower(system_, incomplete_roles).binding);
    const auto result = driver::TestRunner(incomplete).run(generate());
    EXPECT_GT(result.count(driver::Verdict::SetupError), 0u);
}

TEST_F(SystemGen, SystemCodegenEmitsRunnableShape) {
    driver::GeneratorOptions options;
    options.enumeration.max_node_visits = 1;
    const auto suite = generate(options);

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

    // A suite of another component names no role method.
    driver::TestSuite foreign = suite;
    foreign.cases.front().calls.back().method_id = "m4";
    EXPECT_THROW((void)generator.suite_source(foreign), Error);
}

TEST_F(SystemGen, GeneratedSystemDriverCompilesAndRuns) {
    if (std::system("c++ --version > /dev/null 2>&1") != 0) {
        GTEST_SKIP() << "no c++ compiler on PATH";
    }
    driver::GeneratorOptions options;
    options.enumeration.max_node_visits = 1;
    const auto suite = generate(options);

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

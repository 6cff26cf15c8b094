// CI isolation gate: run the Hostile component's mutation campaign in
// sandbox workers (STC_HOSTILE_FAULTS=1 makes the faults REAL — null
// derefs, busy loops, allocation bombs) and print one audit line per
// mutant:
//
//   <mutant-id> <fate> <reason> <sandbox-kind|->
//
// Exit status: 0 when the campaign completed with a clean baseline and
// every sandbox-terminated item was classified; 1 otherwise.  CI greps
// the lines for crash-signal:/timeout/resource-limit to prove the real
// faults were contained (see .github/workflows/ci.yml).
#include <cstdlib>
#include <cstring>
#include <memory>
#include <iostream>
#include <string>

#include "stc/campaign/scheduler.h"
#include "stc/sandbox/executor.h"
#include "hostile_component.h"

// Sanitizer runtimes intercept the real SIGSEGV and need far more
// address space than the RLIMIT_AS cap allows; the gate is meaningless
// under them, so it self-skips (the ASan CI job runs the full ctest
// suite, which includes this binary).
#if defined(__SANITIZE_ADDRESS__)
#define STC_UNDER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define STC_UNDER_ASAN 1
#endif
#endif
#ifndef STC_UNDER_ASAN
#define STC_UNDER_ASAN 0
#endif

int main(int argc, char** argv) {
    using namespace stc;

    if (STC_UNDER_ASAN) {
        std::cerr << "hostile campaign: skipped under sanitizers\n";
        return 0;
    }

    campaign::CampaignOptions options;
    options.jobs = 2;
    bool isolate = true;
    // The deadline must leave the Gobble allocation bomb enough CPU to
    // actually reach RLIMIT_AS on a loaded single-core runner; 600ms is
    // too tight and misclassifies the bomb as a timeout.
    sandbox::SandboxLimits limits;
    limits.timeout_ms = 2000;
    limits.rlimit_as_mb = 512;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::uint64_t {
            if (i + 1 >= argc) {
                std::cerr << "missing value for " << arg << "\n";
                std::exit(2);
            }
            return std::strtoull(argv[++i], nullptr, 10);
        };
        if (arg == "--jobs") {
            options.jobs = static_cast<std::size_t>(value());
        } else if (arg == "--timeout-ms") {
            limits.timeout_ms = value();
        } else if (arg == "--rlimit-as") {
            limits.rlimit_as_mb = value();
        } else if (arg == "--no-isolate") {
            isolate = false;
        } else if (arg == "--store") {
            if (i + 1 >= argc) {
                std::cerr << "missing value for --store\n";
                return 2;
            }
            options.store_path = argv[++i];
        } else {
            std::cerr << "unknown flag: " << arg << "\n";
            return 2;
        }
    }

    if (isolate) options.executor = std::make_shared<sandbox::SandboxExecutor>(limits);
    if (!testing::hostile_faults_enabled() && isolate) {
        std::cerr << "warning: STC_HOSTILE_FAULTS is not set; faults will "
                     "throw instead of crashing\n";
    }

    const tspec::ComponentSpec spec = testing::hostile_spec();
    reflect::Registry registry;
    registry.add(testing::hostile_binding());
    const driver::TestSuite suite = driver::DriverGenerator(spec).generate();
    const auto mutants =
        mutation::enumerate_mutants(testing::hostile_descriptors(), "Hostile");

    const campaign::CampaignScheduler scheduler(registry, options);
    const campaign::CampaignResult result = scheduler.run(suite, mutants);

    bool ok = result.run.baseline_clean &&
              result.run.outcomes.size() == mutants.size();
    for (const auto& outcome : result.run.outcomes) {
        std::cout << outcome.mutant->id() << ' '
                  << mutation::to_string(outcome.fate) << ' '
                  << oracle::to_string(outcome.reason) << ' '
                  << (outcome.sandbox.empty() ? "-" : outcome.sandbox) << "\n";
        // A sandbox termination must always have been folded into a
        // Killed/Crash classification — never left dangling.
        if (!outcome.sandbox.empty() &&
            outcome.fate != mutation::MutantFate::Killed) {
            ok = false;
        }
    }
    std::cerr << "hostile campaign: " << result.run.outcomes.size()
              << " mutant(s), " << result.run.killed() << " killed, "
              << result.stats.respawns << " worker respawn(s)\n";
    return ok ? 0 : 1;
}

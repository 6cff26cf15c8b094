// stc::sandbox tests: pipe framing (stc::wire raw frames), wait-status
// decoding, the forked worker pool surviving genuinely hostile jobs
// (real SIGSEGV, hangs, allocation bombs), and the isolated campaign
// contracts — fates byte-identical to in-process for benign mutants,
// real faults contained to one worker, and clean resume after the
// orchestrator itself is SIGKILLed mid-run.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "stc/campaign/scheduler.h"
#include "stc/sandbox/codec.h"
#include "stc/sandbox/executor.h"
#include "stc/sandbox/limits.h"
#include "stc/sandbox/worker_pool.h"
#include "stc/wire/frame.h"
#include "hostile_component.h"
#include "test_component.h"

// Real-fault tests deliberately segfault and exhaust address space in
// forked children; sanitizer runtimes intercept both and turn them
// into their own reports, so those tests skip under ASan.
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

namespace stc::sandbox {
namespace {

// ------------------------------------------------------------------- ipc

std::string raw_frame(const std::string& payload) {
    const auto n = static_cast<std::uint32_t>(payload.size());
    std::string out;
    out.push_back(static_cast<char>(n & 0xffu));
    out.push_back(static_cast<char>((n >> 8u) & 0xffu));
    out.push_back(static_cast<char>((n >> 16u) & 0xffu));
    out.push_back(static_cast<char>((n >> 24u) & 0xffu));
    out += payload;
    return out;
}

TEST(SandboxIpc, FrameRoundTripsThroughAPipe) {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const std::string payload = "hello, \x01 hostile \n bytes";
    ASSERT_TRUE(wire::write_raw_frame(fds[1], payload));
    ASSERT_TRUE(wire::write_raw_frame(fds[1], ""));  // empty is a valid frame
    EXPECT_EQ(wire::read_raw_frame(fds[0]), payload);
    EXPECT_EQ(wire::read_raw_frame(fds[0]), "");
    ::close(fds[1]);
    EXPECT_FALSE(wire::read_raw_frame(fds[0]).has_value());  // clean EOF
    ::close(fds[0]);
}

TEST(SandboxIpc, TornPrefixReadsAsNoFrame) {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ASSERT_EQ(::write(fds[1], "\x07\x00", 2), 2);  // half a length prefix
    ::close(fds[1]);
    EXPECT_FALSE(wire::read_raw_frame(fds[0]).has_value());
    ::close(fds[0]);
}

TEST(SandboxIpc, FrameBufferReassemblesByteByByte) {
    const std::string bytes = raw_frame("first") + raw_frame("") +
                              raw_frame("second frame");
    wire::RawFrameBuffer buffer;
    std::vector<std::string> frames;
    for (const char byte : bytes) {
        buffer.feed(&byte, 1);
        while (auto frame = buffer.take_frame()) frames.push_back(*frame);
        EXPECT_FALSE(buffer.oversized());
    }
    ASSERT_EQ(frames.size(), 3u);
    EXPECT_EQ(frames[0], "first");
    EXPECT_EQ(frames[1], "");
    EXPECT_EQ(frames[2], "second frame");
    EXPECT_EQ(buffer.pending_bytes(), 0u);
}

// --------------------------------------------------- wait-status decode

/// Fork, run `in_child`, return the waitpid status.  The child must
/// terminate inside `in_child` (or it _exits 0).
int wait_status_of(const std::function<void()>& in_child) {
    const pid_t pid = ::fork();
    if (pid == 0) {
        in_child();
        ::_exit(0);
    }
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {}
    return status;
}

TEST(DecodeWaitStatus, CleanAndReservedExitCodes) {
    const auto clean = decode_wait_status(
        wait_status_of([] { ::_exit(0); }), false);
    EXPECT_EQ(clean.kind, ExitKind::WorkerExit);
    EXPECT_EQ(clean.code, 0);
    EXPECT_EQ(outcome_kind(clean), "worker-exit:0");

    const auto oom = decode_wait_status(
        wait_status_of([] { ::_exit(kResourceLimitExit); }), false);
    EXPECT_EQ(oom.kind, ExitKind::ResourceLimit);
    EXPECT_EQ(outcome_kind(oom), "resource-limit");

    const auto failed = decode_wait_status(
        wait_status_of([] { ::_exit(kWorkerFailureExit); }), false);
    EXPECT_EQ(failed.kind, ExitKind::WorkerExit);
    EXPECT_EQ(failed.code, kWorkerFailureExit);
}

TEST(DecodeWaitStatus, SignalsFollowTheTable) {
    const auto segv = decode_wait_status(wait_status_of([] {
        ::signal(SIGSEGV, SIG_DFL);
        ::raise(SIGSEGV);
    }), false);
    EXPECT_EQ(segv.kind, ExitKind::CrashSignal);
    EXPECT_EQ(segv.signal, SIGSEGV);
    EXPECT_EQ(outcome_kind(segv), "crash-signal:" + std::to_string(SIGSEGV));

    // SIGXCPU is the RLIMIT_CPU backstop: a timeout, not a crash.
    const auto xcpu = decode_wait_status(wait_status_of([] {
        ::signal(SIGXCPU, SIG_DFL);
        ::raise(SIGXCPU);
    }), false);
    EXPECT_EQ(xcpu.kind, ExitKind::Timeout);
    EXPECT_EQ(outcome_kind(xcpu), "timeout");

    // A SIGKILL the parent did not send reads as the kernel OOM killer.
    const auto external = decode_wait_status(wait_status_of([] {
        ::raise(SIGKILL);
    }), false);
    EXPECT_EQ(external.kind, ExitKind::ResourceLimit);

    // The same status, when the parent sent the kill for a missed
    // deadline, reads as a timeout.
    const auto deadline = decode_wait_status(wait_status_of([] {
        ::raise(SIGKILL);
    }), true);
    EXPECT_EQ(deadline.kind, ExitKind::Timeout);
}

// ------------------------------------------------------------ worker pool

/// Payload-directed job: "ok:<x>" echoes, the rest misbehave for real.
std::string hostile_job(const std::string& payload) {
    if (payload.rfind("ok:", 0) == 0) return "echo:" + payload;
    if (payload == "exit") ::_exit(3);
    if (payload == "throw") throw std::runtime_error("job failure");
    if (payload == "segv") {
        volatile int* null = nullptr;
        *null = 1;
    }
    if (payload == "hang") {
        for (;;) ::pause();
    }
    if (payload == "alloc") {
        std::vector<std::unique_ptr<char[]>> hoard;
        for (;;) {
            constexpr std::size_t kChunk = 8u << 20;
            hoard.push_back(std::make_unique<char[]>(kChunk));
            for (std::size_t off = 0; off < kChunk; off += 4096) {
                hoard.back()[off] = 1;
            }
        }
    }
    return "unreachable";
}

std::vector<TaskResult> run_pool(const std::vector<std::string>& payloads,
                                 PoolOptions options,
                                 PoolStats* stats_out = nullptr) {
    WorkerPool pool(hostile_job, std::move(options));
    std::vector<TaskResult> results(payloads.size());
    pool.run(payloads, [&](std::size_t index, TaskResult result) {
        results[index] = std::move(result);
    });
    if (stats_out != nullptr) *stats_out = pool.stats();
    return results;
}

TEST(SandboxWorkerPool, EchoesEveryPayloadAtSeveralWidths) {
    std::vector<std::string> payloads;
    for (int i = 0; i < 24; ++i) payloads.push_back("ok:" + std::to_string(i));
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
        PoolOptions options;
        options.workers = workers;
        PoolStats stats;
        const auto results = run_pool(payloads, options, &stats);
        for (std::size_t i = 0; i < payloads.size(); ++i) {
            ASSERT_TRUE(results[i].ok()) << results[i].outcome();
            EXPECT_EQ(results[i].payload, "echo:" + payloads[i]);
            EXPECT_LT(results[i].worker, workers);
        }
        EXPECT_EQ(stats.respawned, 0u);
        EXPECT_EQ(stats.kills, 0u);
        EXPECT_LE(stats.spawned, workers);
    }
}

TEST(SandboxWorkerPool, SurvivesWorkerDeathsAndKeepsServing) {
    PoolOptions options;
    options.workers = 2;
    options.limits.timeout_ms = 500;

    std::vector<WorkerEvent> events;
    options.on_event = [&](const WorkerEvent& e) { events.push_back(e); };
    std::size_t dispatches = 0;
    options.on_dispatch = [&](std::size_t, std::size_t) { ++dispatches; };

    const std::vector<std::string> payloads = {
        "ok:a", "exit", "ok:b", "throw", "hang", "ok:c"};
    PoolStats stats;
    const auto results = run_pool(payloads, options, &stats);

    EXPECT_EQ(results[0].payload, "echo:ok:a");
    EXPECT_EQ(results[1].outcome(), "worker-exit:3");
    EXPECT_EQ(results[2].payload, "echo:ok:b");
    EXPECT_EQ(results[3].outcome(),
              "worker-exit:" + std::to_string(kWorkerFailureExit));
    EXPECT_EQ(results[4].outcome(), "timeout");
    EXPECT_EQ(results[5].payload, "echo:ok:c");

    EXPECT_EQ(stats.kills, 1u);        // the hang
    EXPECT_EQ(stats.timeouts, 1u);
    EXPECT_EQ(stats.worker_exits, 2u);  // exit + throw
    // Respawn is lazy (on next dispatch), so a worker whose death
    // coincided with the end of the queue may never be replaced.
    EXPECT_GE(stats.respawned, 2u);
    EXPECT_EQ(dispatches, payloads.size());

    std::size_t spawns = 0, exits = 0, kills = 0;
    for (const WorkerEvent& e : events) {
        if (e.kind == WorkerEventKind::Spawn) ++spawns;
        if (e.kind == WorkerEventKind::Exit) ++exits;
        if (e.kind == WorkerEventKind::Kill) ++kills;
    }
    EXPECT_EQ(spawns, stats.spawned);
    EXPECT_EQ(kills, 1u);
    EXPECT_GE(exits, 3u);  // the three mid-run deaths (+ final shutdown)
}

TEST(SandboxWorkerPool, WorkersPersistAcrossRuns) {
    PoolOptions options;
    options.workers = 2;
    std::vector<WorkerEvent> events;
    options.on_event = [&](const WorkerEvent& e) { events.push_back(e); };
    std::optional<WorkerPool> pool;
    pool.emplace(hostile_job, std::move(options));
    const std::vector<std::string> payloads = {"ok:a", "ok:b", "ok:c"};
    for (int round = 0; round < 2; ++round) {
        std::size_t replies = 0;
        pool->run(payloads, [&](std::size_t index, TaskResult result) {
            EXPECT_EQ(result.payload, "echo:" + payloads[index]);
            ++replies;
        });
        EXPECT_EQ(replies, payloads.size());
    }
    EXPECT_EQ(pool->stats().spawned, 2u);
    EXPECT_EQ(pool->stats().respawned, 0u);
    EXPECT_EQ(events.size(), 2u);  // two spawns, no exit until shutdown

    pool.reset();  // the destructor shuts each worker down once
    ASSERT_EQ(events.size(), 4u);
    for (std::size_t i = 2; i < events.size(); ++i) {
        EXPECT_EQ(events[i].kind, WorkerEventKind::Exit);
        EXPECT_EQ(events[i].detail, "");
    }
}

TEST(SandboxWorkerPool, RealSegfaultAndAllocationBombAreContained) {
    if (STC_UNDER_ASAN) {
        GTEST_SKIP() << "real SIGSEGV / RLIMIT_AS conflict with sanitizers";
    }
    PoolOptions options;
    options.workers = 2;
    options.limits.timeout_ms = 5000;
    options.limits.rlimit_as_mb = 512;

    const std::vector<std::string> payloads = {"ok:a", "segv", "alloc", "ok:b"};
    PoolStats stats;
    const auto results = run_pool(payloads, options, &stats);

    EXPECT_EQ(results[0].payload, "echo:ok:a");
    EXPECT_EQ(results[1].outcome(), "crash-signal:" + std::to_string(SIGSEGV));
    EXPECT_EQ(results[2].outcome(), "resource-limit");
    EXPECT_EQ(results[3].payload, "echo:ok:b");
    EXPECT_EQ(stats.crashes, 1u);
    EXPECT_EQ(stats.resource_limits, 1u);
}

TEST(SandboxRunner, RespawnsAfterACrashAndKeepsServing) {
    SandboxLimits limits;
    limits.timeout_ms = 500;
    SandboxRunner runner(hostile_job, limits);

    EXPECT_EQ(runner.call("ok:1").payload, "echo:ok:1");
    EXPECT_EQ(runner.call("exit").outcome(), "worker-exit:3");
    EXPECT_EQ(runner.call("ok:2").payload, "echo:ok:2");
    EXPECT_EQ(runner.call("hang").outcome(), "timeout");
    EXPECT_EQ(runner.call("ok:3").payload, "echo:ok:3");
    EXPECT_GE(runner.stats().respawned, 2u);
    // Every fork after the first replaces a worker that died.
    EXPECT_EQ(runner.stats().spawned, runner.stats().respawned + 1);
}

// ------------------------------------------------------------------ codec

TEST(SandboxCodec, OutcomeRoundTripsAndTerminationIsAKill) {
    mutation::MutantOutcome outcome;
    outcome.fate = mutation::MutantFate::Killed;
    outcome.reason = oracle::KillReason::Assertion;
    outcome.hit_by_suite = true;
    outcome.killed_by_probe = true;
    const auto back = decode_outcome(encode_outcome(outcome));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->fate, outcome.fate);
    EXPECT_EQ(back->reason, outcome.reason);
    EXPECT_TRUE(back->hit_by_suite);
    EXPECT_TRUE(back->killed_by_probe);

    EXPECT_FALSE(decode_outcome("not json").has_value());
    EXPECT_FALSE(decode_outcome("{\"fate\":\"killed\"}").has_value());

    const auto terminated = outcome_from_termination("crash-signal:11");
    EXPECT_EQ(terminated.fate, mutation::MutantFate::Killed);
    EXPECT_EQ(terminated.reason, oracle::KillReason::Crash);
    EXPECT_TRUE(terminated.hit_by_suite);
    EXPECT_EQ(terminated.sandbox, "crash-signal:11");
}

TEST(SandboxCodec, EveryKillReasonSurvivesTheOutcomeCodec) {
    // A reason the codec cannot ship silently downgrades an isolated
    // campaign's report (the frame decodes to nullopt → respawn churn),
    // so the whole enumeration — IllegalQuiescence included — must
    // round-trip bit-exactly.
    for (const oracle::KillReason reason : oracle::kAllKillReasons) {
        mutation::MutantOutcome outcome;
        outcome.fate = reason == oracle::KillReason::None
                           ? mutation::MutantFate::Alive
                           : mutation::MutantFate::Killed;
        outcome.reason = reason;
        outcome.hit_by_suite = true;
        const auto back = decode_outcome(encode_outcome(outcome));
        ASSERT_TRUE(back.has_value()) << oracle::to_string(reason);
        EXPECT_EQ(back->fate, outcome.fate) << oracle::to_string(reason);
        EXPECT_EQ(back->reason, reason) << oracle::to_string(reason);
    }
}

TEST(SandboxCodec, EveryVerdictSurvivesTheResultCodec) {
    // The fuzz replay channel ships raw TestResults; same exhaustive
    // contract for the verdict enumeration.
    for (const driver::Verdict verdict : driver::kAllVerdicts) {
        driver::TestResult result;
        result.case_id = "tc_7";
        result.verdict = verdict;
        result.failed_method = "m3";
        result.message = "obligation 'ledger.Record' silently absorbed";
        const auto back = decode_result(encode_result(result));
        ASSERT_TRUE(back.has_value()) << driver::to_string(verdict);
        EXPECT_EQ(back->verdict, verdict) << driver::to_string(verdict);
        EXPECT_EQ(back->case_id, "tc_7");
        EXPECT_EQ(back->failed_method, "m3");
        EXPECT_EQ(back->message, result.message);
    }
}

// ------------------------------------------------------ isolated campaign

class IsolatedCampaignTest : public ::testing::Test {
protected:
    IsolatedCampaignTest() : spec_(stc::testing::counter_spec()) {
        registry_.add(stc::testing::counter_binding());
        suite_ = driver::DriverGenerator(spec_).generate();
        mutants_ = mutation::enumerate_mutants(
            stc::testing::counter_descriptors(), "Counter");
    }

    [[nodiscard]] campaign::CampaignResult run_campaign(
        campaign::CampaignOptions options) const {
        const campaign::CampaignScheduler scheduler(registry_,
                                                    std::move(options));
        return scheduler.run(suite_, mutants_, nullptr);
    }

    static void expect_same_outcomes(const mutation::MutationRun& a,
                                     const mutation::MutationRun& b) {
        ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
        for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
            EXPECT_EQ(a.outcomes[i].mutant, b.outcomes[i].mutant) << i;
            EXPECT_EQ(a.outcomes[i].fate, b.outcomes[i].fate) << i;
            EXPECT_EQ(a.outcomes[i].reason, b.outcomes[i].reason) << i;
            EXPECT_EQ(a.outcomes[i].hit_by_suite, b.outcomes[i].hit_by_suite)
                << i;
            EXPECT_EQ(a.outcomes[i].killed_by_probe,
                      b.outcomes[i].killed_by_probe)
                << i;
        }
    }

    tspec::ComponentSpec spec_;
    reflect::Registry registry_;
    driver::TestSuite suite_;
    std::vector<mutation::Mutant> mutants_;
};

TEST_F(IsolatedCampaignTest, BenignFatesMatchInProcessAtSeveralJobCounts) {
    campaign::CampaignOptions in_process;
    in_process.jobs = 2;
    const auto baseline = run_campaign(in_process);

    for (const std::size_t jobs : {std::size_t{1}, std::size_t{3}}) {
        campaign::CampaignOptions isolated_options;
        isolated_options.jobs = jobs;
        sandbox::SandboxLimits limits;
        limits.timeout_ms = 20000;
        isolated_options.executor = std::make_shared<SandboxExecutor>(limits);
        const auto isolated = run_campaign(isolated_options);

        expect_same_outcomes(baseline.run, isolated.run);
        EXPECT_EQ(baseline.fingerprint, isolated.fingerprint);
        EXPECT_TRUE(isolated.run.baseline_clean);
        EXPECT_EQ(isolated.stats.executed, mutants_.size());
        for (const auto& outcome : isolated.run.outcomes) {
            EXPECT_EQ(outcome.sandbox, "") << outcome.mutant->id();
        }
        EXPECT_DOUBLE_EQ(baseline.run.score(), isolated.run.score());
    }
}

TEST_F(IsolatedCampaignTest, IsolationRejectsTheShrinker) {
    campaign::CampaignOptions options;
    options.executor = std::make_shared<SandboxExecutor>();
    options.shrink_corpus_dir = "/tmp/stc_isolate_shrink_corpus";
    options.spec = &spec_;
    EXPECT_THROW((void)run_campaign(options), ContractError);
}

// ------------------------------------------------------ hostile campaign

/// Scoped STC_HOSTILE_FAULTS=1 — the opt-in for REAL faults.
struct HostileFaultsScope {
    HostileFaultsScope() { ::setenv("STC_HOSTILE_FAULTS", "1", 1); }
    ~HostileFaultsScope() { ::unsetenv("STC_HOSTILE_FAULTS"); }
};

class HostileCampaignTest : public ::testing::Test {
protected:
    HostileCampaignTest() : spec_(stc::testing::hostile_spec()) {
        registry_.add(stc::testing::hostile_binding());
        suite_ = driver::DriverGenerator(spec_).generate();
        mutants_ = mutation::enumerate_mutants(
            stc::testing::hostile_descriptors(), "Hostile");
    }

    [[nodiscard]] campaign::CampaignOptions isolated_options() const {
        campaign::CampaignOptions options;
        options.jobs = 2;
        // Generous deadline: the Gobble allocation bomb needs a few
        // hundred ms of CPU to reach RLIMIT_AS, and on a single-core
        // box two workers share that CPU — the deadline must not fire
        // before the resource limit does.
        sandbox::SandboxLimits limits;
        limits.timeout_ms = 2000;
        limits.rlimit_as_mb = 512;
        options.executor = std::make_shared<SandboxExecutor>(limits);
        return options;
    }

    [[nodiscard]] campaign::CampaignResult run_campaign(
        campaign::CampaignOptions options) const {
        const campaign::CampaignScheduler scheduler(registry_,
                                                    std::move(options));
        return scheduler.run(suite_, mutants_, nullptr);
    }

    /// Assert the contract of every hostile mutant: triggering mutants
    /// (everything but the value-preserving RepReq.ZERO) are terminated
    /// by the sandbox with the kind their method provokes; ZERO mutants
    /// run to completion with no sandbox termination at all.
    static void expect_contained_faults(const mutation::MutationRun& run) {
        for (const auto& outcome : run.outcomes) {
            const std::string id = outcome.mutant->id();
            if (id.find(".ZERO") != std::string::npos) {
                EXPECT_EQ(outcome.sandbox, "") << id;
                continue;
            }
            SCOPED_TRACE(id);
            EXPECT_EQ(outcome.fate, mutation::MutantFate::Killed);
            EXPECT_EQ(outcome.reason, oracle::KillReason::Crash);
            if (id.find("::Segv@") != std::string::npos) {
                EXPECT_EQ(outcome.sandbox,
                          "crash-signal:" + std::to_string(SIGSEGV));
            } else if (id.find("::Hang@") != std::string::npos) {
                EXPECT_EQ(outcome.sandbox, "timeout");
            } else if (id.find("::Gobble@") != std::string::npos) {
                // The allocation bomb normally dies at RLIMIT_AS, but
                // on a CPU-starved box the wall-clock deadline can fire
                // while the hoard is still being zeroed.  Either kind
                // proves the sandbox contained it.
                EXPECT_TRUE(outcome.sandbox == "resource-limit" ||
                            outcome.sandbox == "timeout")
                    << "sandbox=" << outcome.sandbox;
            }
        }
    }

    tspec::ComponentSpec spec_;
    reflect::Registry registry_;
    driver::TestSuite suite_;
    std::vector<mutation::Mutant> mutants_;
};

TEST_F(HostileCampaignTest, RealFaultsKillOnlyTheirWorker) {
    if (STC_UNDER_ASAN) {
        GTEST_SKIP() << "real SIGSEGV / RLIMIT_AS conflict with sanitizers";
    }
    const HostileFaultsScope hostile;
    const auto result = run_campaign(isolated_options());

    EXPECT_TRUE(result.run.baseline_clean);
    EXPECT_EQ(result.run.outcomes.size(), mutants_.size());
    expect_contained_faults(result.run);
    // 15 triggering mutants (3 methods x (BitNeg + 4 nonzero RepReq)),
    // each of which took down a persistent worker.  Respawn is lazy
    // (on next dispatch), so a worker whose death coincided with the
    // end of its queue is never replaced — at 2 jobs that forgives up
    // to two of the fifteen deaths.
    EXPECT_GE(result.stats.respawns, 13u);
}

TEST_F(HostileCampaignTest, SurvivesOrchestratorSigkillAndResumes) {
    if (STC_UNDER_ASAN) {
        GTEST_SKIP() << "real SIGSEGV / RLIMIT_AS conflict with sanitizers";
    }
    const std::string store = "/tmp/stc_sandbox_resume_store.jsonl";
    std::remove(store.c_str());

    const HostileFaultsScope hostile;
    auto options = isolated_options();
    options.store_path = store;

    // First generation: a child orchestrator that we SIGKILL mid-run —
    // the crash-surviving-campaign contract, exercised for real.
    const pid_t orchestrator = ::fork();
    ASSERT_GE(orchestrator, 0);
    if (orchestrator == 0) {
        try {
            (void)run_campaign(options);
        } catch (...) {
        }
        ::_exit(0);  // never exit(): parent-owned buffers are inherited
    }
    ::usleep(900 * 1000);  // long enough to finish some items, not all
    ::kill(orchestrator, SIGKILL);
    int status = 0;
    while (::waitpid(orchestrator, &status, 0) < 0 && errno == EINTR) {}

    // Second generation, in this process: resume from whatever the
    // killed orchestrator managed to persist, and finish the campaign.
    const auto resumed = run_campaign(options);
    EXPECT_EQ(resumed.stats.resumed + resumed.stats.executed, mutants_.size());
    EXPECT_GE(resumed.stats.resumed, 1u);
    EXPECT_LE(resumed.stats.executed, mutants_.size() - 1);
    expect_contained_faults(resumed.run);
}

}  // namespace
}  // namespace stc::sandbox

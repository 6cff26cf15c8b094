// Fork-based sandbox worker pool (the isolated execution engine behind
// `concat campaign --isolate` and `concat fuzz --isolate`).
//
// The pool forks up to N persistent workers.  Each worker loops
// "read request frame, run the job closure, write reply frame" over
// stc::wire raw frames; the parent runs a single-threaded poll() event
// loop that dispatches payloads to idle workers, enforces per-item
// wall-clock deadlines (SIGKILL escalation), decodes every child death
// (limits.h), respawns the worker, and reports exactly one TaskResult
// per payload.  A crashing, hanging, or allocation-bombing job kills
// only its worker — never the run.  Workers outlive run(): the next
// run reuses them, and the pool's destructor shuts them down.
//
// Why not fork from the work-stealing thread pool?  fork() in a
// multithreaded process clones only the calling thread; any lock held
// by another thread at that instant stays locked forever in the child.
// Isolation therefore replaces the thread pool: one parent thread,
// N worker *processes*, parallelism from the processes.
//
// Hygiene rules the implementation lives by:
//   - children terminate with _exit() only — exit() would flush stdio
//     and ofstream buffers inherited from the parent, duplicating
//     report/store/telemetry output;
//   - each freshly forked child closes every other live worker's pipe
//     fds, otherwise a sibling holding a write end defeats the
//     parent's EOF-based death detection;
//   - the parent ignores SIGPIPE so writing to a just-died worker is
//     an EPIPE error return, not a process-killing signal.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "stc/obs/context.h"
#include "stc/sandbox/limits.h"

namespace stc::sandbox {

/// The work a child performs per request: payload in, reply out.  Runs
/// in the forked child only; throwing makes the child _exit with
/// kWorkerFailureExit.  Must not touch parent-owned streams or files.
using Job = std::function<std::string(const std::string&)>;

enum class WorkerEventKind {
    Spawn,  ///< a worker process was forked
    Exit,   ///< a worker process was reaped
    Kill,   ///< the parent SIGKILLed a worker for missing its deadline
};

[[nodiscard]] const char* to_string(WorkerEventKind kind) noexcept;

/// Lifecycle notification, forwarded to telemetry by the scheduler.
struct WorkerEvent {
    WorkerEventKind kind = WorkerEventKind::Spawn;
    std::size_t worker = 0;  ///< stable slot ordinal, not the pid
    std::int64_t pid = 0;
    std::string detail;  ///< Exit: outcome kind ("" for clean shutdown)
};

struct PoolOptions {
    /// Worker processes; 0 and 1 both mean a single worker.
    std::size_t workers = 1;
    SandboxLimits limits;
    /// Metrics/trace instrumentation (sandbox.* counters, worker spans).
    obs::Context obs;
    /// Worker lifecycle callback (telemetry bridge).  Runs on the
    /// parent thread, also from ~WorkerPool, so it must not throw.
    std::function<void(const WorkerEvent&)> on_event;
    /// Called when payload `item` is handed to worker `worker` —
    /// the isolated twin of the thread pool's item-start event.
    std::function<void(std::size_t item, std::size_t worker)> on_dispatch;
};

/// How one dispatched payload ended.
struct TaskResult {
    DecodedExit exit;     ///< ExitKind::Ok iff a complete reply arrived
    std::string payload;  ///< the reply frame (valid when ok())
    std::size_t worker = 0;
    double wall_ms = 0.0;

    [[nodiscard]] bool ok() const noexcept {
        return exit.kind == ExitKind::Ok;
    }
    /// "" for ok(); else "crash-signal:<n>" / "timeout" /
    /// "resource-limit" / "worker-exit:<c>".
    [[nodiscard]] std::string outcome() const { return outcome_kind(exit); }
};

struct PoolStats {
    std::size_t spawned = 0;    ///< total forks, including respawns
    std::size_t respawned = 0;  ///< forks replacing a dead worker
    std::size_t kills = 0;      ///< deadline SIGKILLs sent
    std::size_t crashes = 0;    ///< items ending in CrashSignal
    std::size_t timeouts = 0;   ///< items ending in Timeout
    std::size_t resource_limits = 0;  ///< items ending in ResourceLimit
    std::size_t worker_exits = 0;     ///< items ending in WorkerExit
};

class WorkerPool {
public:
    WorkerPool(Job job, PoolOptions options);
    /// Closes every live worker's request pipe and reaps it, emitting
    /// one worker-exit event (empty detail) per worker.
    ~WorkerPool();

    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    /// Execute every payload in a sandbox worker.  `on_result` fires on
    /// the parent thread exactly once per payload, in completion order
    /// (callers needing deterministic output must slot results by
    /// index).  Returns when all payloads have a result; the workers
    /// stay alive for the next run.
    void run(const std::vector<std::string>& payloads,
             const std::function<void(std::size_t index, TaskResult)>&
                 on_result);

    [[nodiscard]] const PoolStats& stats() const noexcept;

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/// One persistent sandbox worker with a synchronous request/reply
/// interface — the fuzz-loop flavour of the pool, where the caller
/// needs each verdict before choosing the next input.  It is a
/// one-worker WorkerPool running one payload per call: a dead worker is
/// respawned on the next call, and only the call that killed it
/// reports a non-Ok result.
class SandboxRunner {
public:
    SandboxRunner(Job job, SandboxLimits limits,
                  std::function<void(const WorkerEvent&)> on_event = {});

    [[nodiscard]] TaskResult call(const std::string& payload);

    [[nodiscard]] const PoolStats& stats() const noexcept;

private:
    WorkerPool pool_;
};

}  // namespace stc::sandbox

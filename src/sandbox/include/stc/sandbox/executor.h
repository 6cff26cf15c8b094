// The fork-server campaign executor (`concat campaign --isolate`).
//
// Every pending item is evaluated in a forked sandbox worker (stc::
// sandbox::WorkerPool) instead of the thread pool, so a mutant that
// really segfaults, hangs, or exhausts memory kills only its worker.
// The children inherit the scheduler's ExecutionContext copy-on-write
// (it is built before the pool forks) and reply with the campaign
// outcome codec.  A worker that dies instead of replying yields a
// synthetic Killed / Crash outcome carrying the termination kind in
// MutantOutcome::sandbox, and is respawned for the next item.  For
// mutants that do not crash, fates are byte-identical to the in-process
// run at any `jobs`.
#pragma once

#include "stc/campaign/executor.h"
#include "stc/sandbox/limits.h"

namespace stc::sandbox {

class SandboxExecutor final : public campaign::Executor {
public:
    /// `limits`: per-item wall deadline and child rlimits.  The worker
    /// count is the campaign's `jobs`.
    explicit SandboxExecutor(SandboxLimits limits = {}) : limits_(limits) {}

    campaign::ExecutorStats run(const Batch& batch) override;

private:
    SandboxLimits limits_;
};

}  // namespace stc::sandbox

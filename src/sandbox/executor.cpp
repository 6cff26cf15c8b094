#include "stc/sandbox/executor.h"

#include <string>
#include <utility>

#include "stc/campaign/outcome_codec.h"
#include "stc/sandbox/codec.h"
#include "stc/sandbox/worker_pool.h"

namespace stc::sandbox {

campaign::ExecutorStats SandboxExecutor::run(const Batch& batch) {
    // Single-threaded event loop over forked workers (forking from the
    // multithreaded pool would clone locks held by other threads).  The
    // request payload is a decimal index into `pending`.
    std::vector<std::string> payloads;
    payloads.reserve(batch.pending.size());
    for (std::size_t i = 0; i < batch.pending.size(); ++i) {
        payloads.push_back(std::to_string(i));
    }
    const campaign::ExecutionContext& context = batch.context;
    const Job job = [&](const std::string& payload) {
        const campaign::WorkItem& item = batch.pending[std::stoull(payload)];
        mutation::PruneStats stats;
        const mutation::MutantOutcome outcome =
            context.evaluate(context.mutants()[item.index], &stats);
        return encode_outcome(outcome, &stats);
    };

    const obs::Context& obs = context.engine().obs;
    PoolOptions options;
    options.workers = batch.jobs;
    options.limits = limits_;
    options.obs = obs;
    options.on_event = [&](const WorkerEvent& event) {
        obs::JsonObject o;
        o.set("event", to_string(event.kind))
            .set("worker", static_cast<std::uint64_t>(event.worker))
            .set("pid", event.pid);
        if (!event.detail.empty()) o.set("detail", event.detail);
        batch.emit(o);
    };
    options.on_dispatch = [&](std::size_t slot, std::size_t worker) {
        const campaign::WorkItem& item = batch.pending[slot];
        batch.emit(obs::JsonObject()
                       .set("event", "item-start")
                       .set("item", static_cast<std::uint64_t>(item.index))
                       .set("mutant", item.mutant_id)
                       .set("worker", static_cast<std::uint64_t>(worker)));
    };

    WorkerPool pool(job, std::move(options));
    pool.run(payloads, [&](std::size_t slot, TaskResult task) {
        campaign::ItemResult result;
        result.worker = task.worker;
        result.wall_ms = task.wall_ms;
        if (task.ok()) {
            const auto reply = obs::JsonObject::parse(task.payload);
            const auto outcome =
                reply ? campaign::decode_outcome(*reply) : std::nullopt;
            result.outcome =  // a garbled reply is a misbehaving worker
                outcome ? *outcome : outcome_from_termination("worker-exit:-3");
            if (reply) result.stats = campaign::decode_prune_stats(*reply);
        } else {
            result.outcome = outcome_from_termination(task.outcome());
        }
        // The children's mutation.* instruments die with them; mirror
        // the fate counter and evaluation latency here.
        obs.metrics.add(std::string("mutation.fate.") +
                        mutation::to_string(result.outcome.fate));
        obs.metrics.observe_ms("mutation.eval_ms", task.wall_ms);
        batch.done(batch.pending[slot], std::move(result));
    });

    campaign::ExecutorStats stats;
    stats.workers = batch.jobs;
    stats.respawns = pool.stats().respawned;
    return stats;
}

}  // namespace stc::sandbox

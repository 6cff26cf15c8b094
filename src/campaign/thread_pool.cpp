#include "stc/campaign/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <mutex>
#include <thread>

namespace stc::campaign {

namespace {

/// One worker's shard: a mutex-guarded deque.  The owner pops from the
/// front, thieves take from the back, so an owner and a thief contend
/// only when a single task remains.
struct Shard {
    std::mutex mutex;
    std::deque<std::size_t> tasks;  // indices into the shared task vector

    bool pop_front(std::size_t& out, std::size_t& depth_after) {
        const std::lock_guard<std::mutex> lock(mutex);
        if (tasks.empty()) return false;
        out = tasks.front();
        tasks.pop_front();
        depth_after = tasks.size();
        return true;
    }

    bool steal_back(std::size_t& out) {
        const std::lock_guard<std::mutex> lock(mutex);
        if (tasks.empty()) return false;
        out = tasks.back();
        tasks.pop_back();
        return true;
    }
};

}  // namespace

WorkStealingPool::WorkStealingPool(std::size_t workers)
    : workers_(workers == 0 ? hardware_workers() : workers) {}

std::size_t WorkStealingPool::hardware_workers() noexcept {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::uint64_t WorkStealingPool::run(std::vector<Task> tasks) const {
    if (tasks.empty()) return 0;

    if (workers_ == 1) {
        WorkerContext context;
        for (std::size_t i = 0; i < tasks.size(); ++i) {
            context.queue_depth = tasks.size() - i - 1;
            tasks[i](context);
        }
        return 0;
    }

    const std::size_t n = std::min(workers_, tasks.size());
    std::vector<Shard> shards(n);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        shards[i % n].tasks.push_back(i);  // deterministic round-robin deal
    }

    std::atomic<std::size_t> remaining{tasks.size()};
    std::atomic<std::uint64_t> steals{0};

    auto worker_loop = [&](std::size_t me) {
        WorkerContext context;
        context.worker = me;
        while (remaining.load(std::memory_order_acquire) > 0) {
            std::size_t task_index = 0;
            std::size_t depth = 0;
            bool found = shards[me].pop_front(task_index, depth);
            bool stolen = false;
            if (!found) {
                for (std::size_t k = 1; k < n && !found; ++k) {
                    found = shards[(me + k) % n].steal_back(task_index);
                }
                stolen = found;
                depth = 0;
            }
            if (!found) {
                // Nothing queued anywhere, but tasks may still be
                // in-flight on other workers; yield until the count
                // drains (items are long; this wastes microseconds).
                std::this_thread::yield();
                continue;
            }
            if (stolen) steals.fetch_add(1, std::memory_order_relaxed);
            context.queue_depth = depth;
            context.stolen = stolen;
            tasks[task_index](context);
            remaining.fetch_sub(1, std::memory_order_acq_rel);
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(n - 1);
    for (std::size_t w = 1; w < n; ++w) threads.emplace_back(worker_loop, w);
    worker_loop(0);
    for (auto& t : threads) t.join();

    return steals.load(std::memory_order_relaxed);
}

void WorkStealingPool::for_each_index(std::size_t n, std::size_t jobs,
                                      const std::function<void(std::size_t)>& fn) {
    std::vector<Task> tasks;
    tasks.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        tasks.push_back([&fn, i](const WorkerContext&) { fn(i); });
    }
    (void)WorkStealingPool(std::max<std::size_t>(1, std::min(jobs, n)))
        .run(std::move(tasks));
}

}  // namespace stc::campaign

// stc::serve tests: worker daemon + coordinator over real loopback
// sockets, in-process (daemon on a thread, coordinator on the test
// thread).  The mechanics tests drive a toy session so they run in
// microseconds; the end-to-end test dispatches a real builtin campaign
// and checks the merged fates against locally evaluated ones — the
// determinism contract `concat dispatch` rests on.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "shop_targets.h"
#include "stc/campaign/scheduler.h"
#include "stc/campaign/work_list.h"
#include "stc/mutation/engine.h"
#include "stc/tfm/coverage.h"
#include "stc/obs/json.h"
#include "stc/obs/trace.h"
#include "stc/sandbox/executor.h"
#include "stc/serve/builtin_host.h"
#include "stc/serve/dispatch.h"
#include "stc/serve/socket.h"
#include "stc/serve/span_codec.h"
#include "stc/serve/worker.h"
#include "stc/support/error.h"
#include "stc/wire/frame.h"

namespace stc::serve {
namespace {

// A minimal deterministic session: the "outcome" of item N is a pure
// function of N, so any shard split / redispatch must merge to the same
// results.
class ToySession : public Session {
public:
    explicit ToySession(std::string fingerprint)
        : fingerprint_(std::move(fingerprint)) {}

    const std::string& fingerprint() const override { return fingerprint_; }

    obs::JsonObject evaluate(const obs::JsonObject& work) override {
        const std::uint64_t index = work.get_uint("item").value_or(0);
        obs::JsonObject result;
        result.set("item", index)
            .set("mutant", work.get_string("mutant").value_or(""))
            .set("answer", index * 7 + 1);
        return result;
    }

private:
    std::string fingerprint_;
};

SessionFactory toy_factory(const std::string& fingerprint) {
    return [fingerprint](const obs::JsonObject&, const obs::Context&,
                         std::string*) -> std::unique_ptr<Session> {
        return std::make_unique<ToySession>(fingerprint);
    };
}

std::vector<campaign::WorkItem> toy_items(std::size_t n) {
    std::vector<campaign::WorkItem> items;
    for (std::size_t i = 0; i < n; ++i) {
        campaign::WorkItem item;
        item.index = i;
        item.mutant_id = "toy-mutant-" + std::to_string(i);
        item.item_seed = 1000 + i;
        item.key = campaign::item_key("toy-fp", item.mutant_id);
        items.push_back(item);
    }
    return items;
}

/// One daemon on an ephemeral loopback port, served on its own thread.
struct DaemonHandle {
    explicit DaemonHandle(SessionFactory factory, bool once = true) {
        ServeOptions options;
        options.once = once;
        daemon = std::make_unique<WorkerDaemon>(std::move(factory),
                                                std::move(options));
        port = daemon->bind();
        thread = std::thread([this] { daemon->serve(); });
    }
    ~DaemonHandle() {
        daemon->stop();
        if (thread.joinable()) thread.join();
    }
    Endpoint endpoint() const {
        return parse_endpoint("127.0.0.1:" + std::to_string(port));
    }

    std::unique_ptr<WorkerDaemon> daemon;
    std::uint16_t port = 0;
    std::thread thread;
};

DispatchOptions toy_dispatch(const std::vector<Endpoint>& endpoints) {
    DispatchOptions options;
    options.workers = endpoints;
    options.hello = obs::JsonObject().set("component", "toy");
    options.expected_fingerprint = "toy-fp";
    return options;
}

// ------------------------------------------------------------ endpoints

TEST(ServeEndpoint, ParseFormsAndErrors) {
    const Endpoint full = parse_endpoint("10.1.2.3:555");
    EXPECT_EQ(full.host, "10.1.2.3");
    EXPECT_EQ(full.port, 555);

    const Endpoint bare = parse_endpoint("4242");
    EXPECT_EQ(bare.host, "127.0.0.1");
    EXPECT_EQ(bare.port, 4242);

    const auto list = parse_endpoints("127.0.0.1:1,127.0.0.1:2");
    ASSERT_EQ(list.size(), 2u);
    EXPECT_EQ(list[1].port, 2);

    EXPECT_THROW((void)parse_endpoint("host:notaport"), Error);
    EXPECT_THROW((void)parse_endpoints(""), Error);
}

// ------------------------------------------------------------- dispatch

TEST(ServeDispatch, TwoWorkersCompleteEveryItemExactlyOnce) {
    DaemonHandle d1(toy_factory("toy-fp"));
    DaemonHandle d2(toy_factory("toy-fp"));

    const auto items = toy_items(10);
    std::map<std::size_t, std::uint64_t> answers;
    Coordinator coordinator(toy_dispatch({d1.endpoint(), d2.endpoint()}));
    const DispatchStats stats = coordinator.run(
        items, [&](const campaign::WorkItem& item,
                   const obs::JsonObject& result) {
            EXPECT_EQ(answers.count(item.index), 0u) << "duplicate result";
            answers[item.index] = result.get_uint("answer").value_or(0);
        });

    EXPECT_EQ(stats.workers, 2u);
    EXPECT_EQ(stats.workers_connected, 2u);
    EXPECT_EQ(stats.disconnects, 0u);
    EXPECT_EQ(stats.executed, 10u);
    ASSERT_EQ(answers.size(), 10u);
    for (std::size_t i = 0; i < 10; ++i) {
        EXPECT_EQ(answers[i], i * 7 + 1);
    }
    // Both daemons carried part of the shard split: every result tags
    // its worker ordinal, and with the content-hash shard both ordinals
    // must appear for this item count.
}

TEST(ServeDispatch, ResumedSubsetKeepsGlobalIndices) {
    DaemonHandle steady(toy_factory("toy-fp"));
    // A mid-campaign death on top of the subset exercises the
    // redispatch bookkeeping with non-identity indices too.
    DaemonHandle flaky([](const obs::JsonObject&, const obs::Context&,
                          std::string*) -> std::unique_ptr<Session> {
        class Flaky : public ToySession {
        public:
            Flaky() : ToySession("toy-fp") {}
            obs::JsonObject evaluate(const obs::JsonObject& work) override {
                if (++count_ > 1) throw Error("injected mid-campaign death");
                return ToySession::evaluate(work);
            }

        private:
            int count_ = 0;
        };
        return std::make_unique<Flaky>();
    });

    // The --resume shape: only the pending remainder of the work list
    // is shipped, so pending[i].index != i.  Results must still slot
    // under each item's global index.
    std::vector<campaign::WorkItem> pending;
    for (const campaign::WorkItem& item : toy_items(12)) {
        if (item.index % 3 != 0) pending.push_back(item);
    }
    ASSERT_EQ(pending.size(), 8u);

    std::map<std::size_t, std::uint64_t> answers;
    Coordinator coordinator(
        toy_dispatch({steady.endpoint(), flaky.endpoint()}));
    const DispatchStats stats = coordinator.run(
        pending, [&](const campaign::WorkItem& item,
                     const obs::JsonObject& result) {
            EXPECT_EQ(answers.count(item.index), 0u) << "duplicate result";
            answers[item.index] = result.get_uint("answer").value_or(0);
        });

    EXPECT_EQ(stats.executed, 8u);
    ASSERT_EQ(answers.size(), 8u);
    for (const campaign::WorkItem& item : pending) {
        EXPECT_EQ(answers[item.index], item.index * 7 + 1)
            << "item " << item.index;
    }
}

TEST(ServeDispatch, FingerprintMismatchMeansNoUsableWorkers) {
    DaemonHandle d1(toy_factory("OTHER-fp"));
    Coordinator coordinator(toy_dispatch({d1.endpoint()}));
    EXPECT_THROW((void)coordinator.run(toy_items(3),
                                       [](const campaign::WorkItem&,
                                          const obs::JsonObject&) {}),
                 Error);
}

TEST(ServeDispatch, HandshakeRejectionFallsBackToSurvivor) {
    DaemonHandle good(toy_factory("toy-fp"));
    DaemonHandle bad([](const obs::JsonObject&, const obs::Context&,
                        std::string* error) -> std::unique_ptr<Session> {
        *error = "unknown component";
        return nullptr;
    });

    std::size_t merged = 0;
    Coordinator coordinator(toy_dispatch({good.endpoint(), bad.endpoint()}));
    const DispatchStats stats = coordinator.run(
        toy_items(6),
        [&](const campaign::WorkItem&, const obs::JsonObject&) { ++merged; });
    EXPECT_EQ(merged, 6u);
    EXPECT_EQ(stats.workers_connected, 1u);
    EXPECT_EQ(stats.disconnects, 1u);
}

TEST(ServeDispatch, UnreachableEndpointFallsBackToSurvivor) {
    DaemonHandle good(toy_factory("toy-fp"));
    // Port 1 on loopback: connect is refused immediately.
    std::size_t merged = 0;
    Coordinator coordinator(
        toy_dispatch({good.endpoint(), parse_endpoint("127.0.0.1:1")}));
    const DispatchStats stats = coordinator.run(
        toy_items(6),
        [&](const campaign::WorkItem&, const obs::JsonObject&) { ++merged; });
    EXPECT_EQ(merged, 6u);
    EXPECT_EQ(stats.disconnects, 1u);
}

TEST(ServeDispatch, MidCampaignDeathRedispatchesToSurvivor) {
    DaemonHandle steady(toy_factory("toy-fp"));
    // This daemon's session dies (Error frame, session torn down) on its
    // second item — after real work was assigned to it.
    DaemonHandle flaky([](const obs::JsonObject&, const obs::Context&,
                          std::string*) -> std::unique_ptr<Session> {
        class Flaky : public ToySession {
        public:
            Flaky() : ToySession("toy-fp") {}
            obs::JsonObject evaluate(const obs::JsonObject& work) override {
                if (++count_ > 1) throw Error("injected mid-campaign death");
                return ToySession::evaluate(work);
            }

        private:
            int count_ = 0;
        };
        return std::make_unique<Flaky>();
    });

    const auto items = toy_items(12);
    std::map<std::size_t, std::uint64_t> answers;
    Coordinator coordinator(
        toy_dispatch({steady.endpoint(), flaky.endpoint()}));
    const DispatchStats stats = coordinator.run(
        items, [&](const campaign::WorkItem& item,
                   const obs::JsonObject& result) {
            answers[item.index] = result.get_uint("answer").value_or(0);
        });

    ASSERT_EQ(answers.size(), 12u);
    for (std::size_t i = 0; i < 12; ++i) {
        EXPECT_EQ(answers[i], i * 7 + 1) << "item " << i;
    }
    EXPECT_EQ(stats.disconnects, 1u);
    EXPECT_GT(stats.redispatched, 0u);
}

TEST(ServeDispatch, SilentWorkerIsDeclaredDeadByKeepalive) {
    DaemonHandle steady(toy_factory("toy-fp"));
    // This worker accepts the handshake, then stalls far past the
    // dead-after deadline on its first item.  The coordinator must not
    // wait for it: keepalive declares it dead and the survivor finishes.
    DaemonHandle stalled([](const obs::JsonObject&, const obs::Context&,
                            std::string*) -> std::unique_ptr<Session> {
        class Stalled : public ToySession {
        public:
            Stalled() : ToySession("toy-fp") {}
            obs::JsonObject evaluate(const obs::JsonObject& work) override {
                std::this_thread::sleep_for(std::chrono::milliseconds(1500));
                return ToySession::evaluate(work);
            }
        };
        return std::make_unique<Stalled>();
    });

    DispatchOptions options =
        toy_dispatch({steady.endpoint(), stalled.endpoint()});
    options.keepalive_ms = 50;
    options.dead_after_ms = 250;

    std::map<std::size_t, std::uint64_t> answers;
    Coordinator coordinator(std::move(options));
    const DispatchStats stats = coordinator.run(
        toy_items(8), [&](const campaign::WorkItem& item,
                          const obs::JsonObject& result) {
            answers[item.index] = result.get_uint("answer").value_or(0);
        });

    ASSERT_EQ(answers.size(), 8u);
    EXPECT_EQ(stats.disconnects, 1u);
    EXPECT_GT(stats.redispatched, 0u);
}

// --------------------------------------------------------------- worker

TEST(ServeWorker, SecondHelloIsAProtocolError) {
    DaemonHandle daemon(toy_factory("toy-fp"));
    const Fd conn = connect_to(daemon.endpoint());
    const std::string hello = obs::JsonObject()
                                  .set("component", "toy")
                                  .set("proto_minor", wire::kProtocolMinor)
                                  .to_line();

    ASSERT_TRUE(
        wire::write_message(conn.get(), wire::MessageType::Hello, hello));
    const auto ack = wire::read_message(conn.get());
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(ack->type, wire::MessageType::HelloAck);

    // A session is configured exactly once: a second Hello must fail
    // the connection, not silently reconfigure it.
    ASSERT_TRUE(
        wire::write_message(conn.get(), wire::MessageType::Hello, hello));
    const auto reply = wire::read_message(conn.get());
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, wire::MessageType::Error);
    const auto payload = obs::JsonObject::parse(reply->payload);
    ASSERT_TRUE(payload.has_value());
    EXPECT_NE(payload->get_string("error").value_or("").find("hello"),
              std::string::npos);
}

// ---------------------------------------------------------- builtin host

TEST(ServeBuiltinHost, HelloRoundTripsTheConfig) {
    BuiltinCampaignConfig config;
    config.component = "coblist";
    config.generator.seed = 99;
    config.generator.cases_per_transaction = 2;
    config.probe = true;
    config.model = false;

    const obs::JsonObject hello = make_hello(config, "fp-here");
    std::string error;
    const auto parsed = parse_hello(hello, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->component, "coblist");
    EXPECT_EQ(parsed->generator.seed, 99u);
    EXPECT_EQ(parsed->generator.cases_per_transaction, 2u);
    EXPECT_TRUE(parsed->probe);
    EXPECT_FALSE(parsed->model);
    EXPECT_EQ(hello.get_string("fingerprint").value_or(""), "fp-here");

    // Both ends are one binary, so every field make_hello writes is
    // required: a Hello without one is rejected, not defaulted.
    for (const char* dropped : {"prune", "fingerprint"}) {
        obs::JsonObject partial;
        for (const auto& field : hello.fields()) {
            if (field.first == dropped) continue;
            std::visit([&](const auto& v) { partial.set(field.first, v); },
                       field.second);
        }
        error.clear();
        EXPECT_FALSE(parse_hello(partial, &error).has_value()) << dropped;
        EXPECT_NE(error.find(dropped), std::string::npos) << error;
    }
}

TEST(ServeBuiltinHost, UnknownComponentIsRejectedNotFatal) {
    BuiltinCampaignConfig config;
    config.component = "no-such-thing";
    std::string error;
    EXPECT_EQ(BuiltinCampaign::open(config, &error), nullptr);
    EXPECT_FALSE(error.empty());
}

TEST(ServeBuiltinHost, RegistryServesTheExampleAssemblyTarget) {
    examples::register_example_targets();
    examples::register_example_targets();  // idempotent: replace, not grow

    const BuiltinTarget* shop = find_builtin_target("shop");
    ASSERT_NE(shop, nullptr);
    EXPECT_TRUE(shop->assembly);
    const BuiltinTarget* wallet = find_builtin_target("wallet");
    ASSERT_NE(wallet, nullptr);
    EXPECT_FALSE(wallet->assembly);
    const BuiltinTarget* system = find_builtin_target("audited-wallet");
    ASSERT_NE(system, nullptr);
    EXPECT_FALSE(system->assembly);
    const std::vector<std::string> names = builtin_target_names();
    EXPECT_EQ(names, (std::vector<std::string>{"audited-wallet", "coblist", "shop",
                                               "sortable", "wallet"}));

    // The worker-side reconstruction path (`open`) works for the
    // assembly product, and the ioco channel reaches the dispatch
    // evaluator: the write-through mutant that survives the intraclass
    // wallet campaign is killed here by illegal quiescence.
    BuiltinCampaignConfig config;
    config.component = "shop";
    config.generator.criterion = tfm::Criterion::AllEdges;
    std::string error;
    const auto host = BuiltinCampaign::open(config, &error);
    ASSERT_NE(host, nullptr) << error;
    EXPECT_TRUE(host->baseline_clean());
    EXPECT_EQ(host->suite().class_name, "Shop");

    const auto outcome =
        host->evaluate("Wallet::Deposit@s2.IndVarRepReq.NULL");
    EXPECT_EQ(outcome.fate, mutation::MutantFate::Killed);
    EXPECT_EQ(outcome.reason, oracle::KillReason::IllegalQuiescence);
}

TEST(ServeBuiltinHost, DispatchedFatesMatchLocalEvaluation) {
    BuiltinCampaignConfig config;
    config.component = "sortable";
    std::string error;
    const auto host = BuiltinCampaign::open(config, &error);
    ASSERT_NE(host, nullptr) << error;

    DaemonHandle d1(builtin_session_factory());
    DaemonHandle d2(builtin_session_factory());

    DispatchOptions options;
    options.workers = {d1.endpoint(), d2.endpoint()};
    options.hello = make_hello(config, host->fingerprint());
    options.expected_fingerprint = host->fingerprint();

    std::map<std::size_t, std::string> fates;
    Coordinator coordinator(std::move(options));
    const DispatchStats stats = coordinator.run(
        host->items(), [&](const campaign::WorkItem& item,
                           const obs::JsonObject& result) {
            fates[item.index] = result.get_string("fate").value_or("?");
        });

    EXPECT_EQ(stats.workers_connected, 2u);
    ASSERT_EQ(fates.size(), host->items().size());
    for (const campaign::WorkItem& item : host->items()) {
        const mutation::MutantOutcome local = host->evaluate(item.mutant_id);
        EXPECT_EQ(fates[item.index], mutation::to_string(local.fate))
            << item.mutant_id;
    }
}

// ---------------------------------------------------- executor parity

/// One campaign run's observable results: the store as key -> record,
/// each item-finish event by item index and the campaign-end event —
/// values with the scheduling-dependent fields stripped, plus the key
/// sets minus only the documented scheduling-only keys (FORMATS.md §5).
struct ParityRun {
    mutation::MutationRun run;
    std::map<std::string, std::string> store;
    std::map<std::uint64_t, std::string> finishes;
    std::map<std::uint64_t, std::set<std::string>> finish_keys;
    std::string end;
    std::set<std::string> end_keys;
};

const std::set<std::string> kSchedulingOnlyKeys = {"queue", "stolen", "steals",
                                                   "respawns", "sandbox"};

std::string without_scheduling_values(const obs::JsonObject& event) {
    static const std::set<std::string> kVarying = {"worker", "workers",
                                                   "wall_ms", "seq"};
    obs::JsonObject kept;
    for (const auto& [key, value] : event.fields()) {
        if (kSchedulingOnlyKeys.count(key) != 0 || kVarying.count(key) != 0) {
            continue;
        }
        std::visit([&, k = key](const auto& v) { kept.set(k, v); }, value);
    }
    return kept.to_line();
}

std::set<std::string> key_set(const obs::JsonObject& event) {
    std::set<std::string> keys;
    for (const auto& field : event.fields()) {
        if (kSchedulingOnlyKeys.count(field.first) == 0) keys.insert(field.first);
    }
    return keys;
}

TEST(ExecutorParity, PoolSandboxAndRemoteAgreeOnFatesStoresAndTelemetry) {
    // One CObList campaign, probe suite and fast tier on, through every
    // executor: the pool at 1 and 4 jobs, the fork-server, and a
    // loopback fleet of two serve daemons.
    BuiltinCampaignConfig config;
    config.component = "coblist";
    config.probe = true;
    config.prune = true;
    std::string error;
    const auto inputs = make_builtin_inputs(config, &error);
    ASSERT_TRUE(inputs.has_value()) << error;
    const std::vector<mutation::Mutant>& mutants = inputs->mutants;

    const std::string dir = ::testing::TempDir() + "stc_parity_" +
                            std::to_string(::getpid()) + "_";
    const auto run = [&](const std::string& name, std::size_t jobs,
                         std::shared_ptr<campaign::Executor> executor) {
        campaign::CampaignOptions options = inputs->options;
        options.jobs = jobs;
        options.store_path = dir + name + ".store.jsonl";
        options.telemetry_path = dir + name + ".tel.jsonl";
        options.executor = std::move(executor);
        std::remove(options.store_path.c_str());
        const campaign::CampaignScheduler scheduler(
            inputs->holder.component->registry(), options);
        ParityRun out;
        out.run = scheduler.run(inputs->suite, mutants, inputs->probe_suite()).run;
        std::ifstream store(options.store_path);
        std::string line;
        std::getline(store, line);  // header
        while (std::getline(store, line)) {
            const auto record = obs::JsonObject::parse(line);
            EXPECT_TRUE(record.has_value()) << line;
            if (!record) continue;
            out.store[record->get_string("key").value_or("")] =
                without_scheduling_values(*record);
        }
        std::ifstream telemetry(options.telemetry_path);
        while (std::getline(telemetry, line)) {
            const auto event = obs::JsonObject::parse(line);
            EXPECT_TRUE(event.has_value()) << line;
            if (!event) continue;
            const std::string kind = event->get_string("event").value_or("");
            const std::uint64_t item = event->get_uint("item").value_or(0);
            if (kind == "item-finish") {
                out.finishes[item] = without_scheduling_values(*event);
                out.finish_keys[item] = key_set(*event);
            } else if (kind == "campaign-end") {
                out.end = without_scheduling_values(*event);
                out.end_keys = key_set(*event);
            }
        }
        std::remove(options.store_path.c_str());
        std::remove(options.telemetry_path.c_str());
        return out;
    };

    const ParityRun reference = run("pool1", 1, nullptr);
    ASSERT_EQ(reference.run.outcomes.size(), mutants.size());
    ASSERT_EQ(reference.store.size(), mutants.size());
    ASSERT_EQ(reference.finishes.size(), mutants.size());
    // The fast tier ran and its counters reached the telemetry.
    EXPECT_NE(reference.finishes.begin()->second.find("\"executed_pairs\""),
              std::string::npos);

    std::vector<std::pair<std::string, ParityRun>> others;
    others.emplace_back("pool4", run("pool4", 4, nullptr));
    others.emplace_back("sandbox",
                        run("sandbox", 2,
                            std::make_shared<sandbox::SandboxExecutor>()));
    {
        DaemonHandle d1(builtin_session_factory());
        DaemonHandle d2(builtin_session_factory());
        DispatchOptions fleet;
        fleet.workers = {d1.endpoint(), d2.endpoint()};
        others.emplace_back(
            "remote", run("remote", 1,
                          std::make_shared<RemoteExecutor>(config, fleet)));
    }

    for (const auto& [name, other] : others) {
        ASSERT_EQ(other.run.outcomes.size(), mutants.size()) << name;
        for (std::size_t i = 0; i < mutants.size(); ++i) {
            const mutation::MutantOutcome& a = reference.run.outcomes[i];
            const mutation::MutantOutcome& b = other.run.outcomes[i];
            EXPECT_EQ(b.mutant, &mutants[i]) << name << " " << i;
            EXPECT_EQ(a.fate, b.fate) << name << " " << mutants[i].id();
            EXPECT_EQ(a.reason, b.reason) << name << " " << mutants[i].id();
            EXPECT_EQ(a.hit_by_suite, b.hit_by_suite) << name << " " << i;
            EXPECT_EQ(a.killed_by_probe, b.killed_by_probe) << name << " " << i;
            EXPECT_EQ(a.model_only, b.model_only) << name << " " << i;
        }
        EXPECT_EQ(other.run.baseline_clean, reference.run.baseline_clean) << name;
        EXPECT_EQ(other.store, reference.store) << name;
        EXPECT_EQ(other.finishes, reference.finishes) << name;
        EXPECT_EQ(other.finish_keys, reference.finish_keys) << name;
        EXPECT_EQ(other.end, reference.end) << name;
        EXPECT_EQ(other.end_keys, reference.end_keys) << name;
    }
}

// ------------------------------------------- distributed trace streaming

TEST(ServeDispatch, TwoWorkerSessionsMergeIntoOneCollisionFreeTrace) {
    // The tentpole acceptance shape in miniature: coordinator + two
    // in-process worker sessions, tracing and telemetry streaming
    // negotiated, everything merged into ONE coordinator-side trace.
    BuiltinCampaignConfig config;
    config.component = "sortable";
    std::string error;
    const auto host = BuiltinCampaign::open(config, &error);
    ASSERT_NE(host, nullptr) << error;

    DaemonHandle d1(builtin_session_factory());
    DaemonHandle d2(builtin_session_factory());

    const obs::Tracer tracer = obs::Tracer::make();
    std::vector<obs::JsonObject> events;
    DispatchOptions options;
    options.workers = {d1.endpoint(), d2.endpoint()};
    options.hello = make_hello(config, host->fingerprint());
    options.expected_fingerprint = host->fingerprint();
    options.obs.tracer = tracer;
    options.stream_telemetry = true;
    options.telemetry_interval_ms = 0;  // fates only, no periodic snapshots
    options.telemetry = [&](const obs::JsonObject& event) {
        events.push_back(event);
    };

    std::size_t merged = 0;
    Coordinator coordinator(std::move(options));
    const DispatchStats stats = coordinator.run(
        host->items(),
        [&](const campaign::WorkItem&, const obs::JsonObject&) { ++merged; });
    EXPECT_EQ(stats.workers_connected, 2u);
    EXPECT_EQ(merged, host->items().size());

    // The campaign-wide trace id was minted from the fingerprint.
    EXPECT_NE(tracer.trace_id(), 0u);

    // The merged trace: every span id unique across coordinator and both
    // worker sessions, and the causal chain closed — each worker
    // work-item span parents on a coordinator item-dispatch span, which
    // parents on the dispatch root.
    const auto all = tracer.events();
    std::map<std::uint64_t, const obs::TraceEvent*> by_id;
    for (const obs::TraceEvent& event : all) {
        EXPECT_EQ(by_id.count(event.span_id), 0u)
            << "duplicate span id " << obs::hex16(event.span_id);
        by_id[event.span_id] = &event;
    }

    std::uint64_t dispatch_root = 0;
    for (const obs::TraceEvent& event : all) {
        if (event.name == "dispatch") dispatch_root = event.span_id;
    }
    ASSERT_NE(dispatch_root, 0u);

    std::size_t item_spans = 0;
    std::size_t work_spans = 0;
    std::set<int> worker_actors;
    for (const obs::TraceEvent& event : all) {
        if (event.name == "item-dispatch") {
            ++item_spans;
            EXPECT_EQ(event.actor, 0);
            EXPECT_EQ(event.parent_id, dispatch_root);
        } else if (event.name == "work-item") {
            ++work_spans;
            worker_actors.insert(event.actor);
            const auto parent = by_id.find(event.parent_id);
            ASSERT_NE(parent, by_id.end())
                << "work-item parent not in the merged trace";
            EXPECT_EQ(parent->second->name, "item-dispatch");
        }
    }
    EXPECT_EQ(item_spans, host->items().size());
    EXPECT_EQ(work_spans, host->items().size());
    // Both worker sessions contributed, with distinct actor ordinals
    // (ordinal + 1), so the merged trace shows three Chrome pids.
    EXPECT_EQ(worker_actors, (std::set<int>{1, 2}));

    // The export is loadable trace JSON and round-trips every event.
    std::ostringstream os;
    tracer.write_chrome_trace(os);
    std::istringstream is(os.str());
    const auto parsed = obs::parse_chrome_trace(is);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->size(), all.size());

    // Streamed telemetry arrived in-process: each item-finish twice (the
    // coordinator merge copy + the worker's streamed copy), plus the
    // session lifecycle events, plus a final forced metrics snapshot per
    // worker even at interval 0.
    std::map<std::string, std::size_t> kinds;
    for (const obs::JsonObject& event : events) {
        kinds[event.get_string("event").value_or("?")]++;
    }
    EXPECT_EQ(kinds["item-finish"], host->items().size());
    EXPECT_EQ(kinds["worker-session"], 2u);
    EXPECT_EQ(kinds["worker-session-end"], 2u);
    EXPECT_EQ(kinds["metrics-snapshot"], 2u);
}

TEST(ServeWorker, OtherProtocolRevisionIsRejectedAtHello) {
    // Coordinator and worker are one binary, so a Hello from any other
    // revision — or from a peer that names none — is refused outright:
    // HelloAck{ok:false} naming both revisions, then the session closes
    // without ever consulting the session factory.
    const std::uint64_t other = wire::kProtocolMinor + 1;
    for (const std::optional<std::uint64_t> minor :
         {std::optional<std::uint64_t>{}, std::optional<std::uint64_t>{other}}) {
        DaemonHandle daemon(toy_factory("toy-fp"));
        const Fd fd = connect_to(daemon.endpoint());
        obs::JsonObject hello;
        hello.set("component", "toy");
        if (minor) hello.set("proto_minor", *minor);
        ASSERT_TRUE(wire::write_message(fd.get(), wire::MessageType::Hello,
                                        hello.to_line()));

        const auto ack = wire::read_message(fd.get());
        ASSERT_TRUE(ack.has_value());
        ASSERT_EQ(ack->type, wire::MessageType::HelloAck);
        const auto payload = obs::JsonObject::parse(ack->payload);
        ASSERT_TRUE(payload.has_value());
        EXPECT_EQ(payload->get_bool("ok"), std::optional<bool>(false));
        const std::string error = payload->get_string("error").value_or("");
        EXPECT_NE(error.find("protocol revision"), std::string::npos) << error;
        EXPECT_NE(error.find(minor ? std::to_string(other) : "(none)"),
                  std::string::npos)
            << error;
        EXPECT_NE(error.find(std::to_string(wire::kProtocolMinor)),
                  std::string::npos)
            << error;
        EXPECT_FALSE(payload->has("fingerprint"));
        // The worker hung up: no session, nothing more on the socket.
        EXPECT_FALSE(wire::read_message(fd.get()).has_value());
    }
}

// --- Streamed-span codec ---------------------------------------------------

TEST(SpanCodec, RoundTripsEveryField) {
    obs::TraceEvent event;
    event.name = "CObList::AddHead";
    event.category = "method-call";
    event.ts_us = 123456789;
    event.dur_us = 42;
    event.tid = 3;
    event.actor = 2;
    event.span_id = 0xdeadbeefcafe0001ULL;
    event.parent_id = 0x0123456789abcdefULL;

    std::string line;
    append_span_line(line, event);
    ASSERT_TRUE(is_span_line(line));

    const auto fast = parse_span_line(line);
    ASSERT_TRUE(fast.has_value());
    EXPECT_EQ(fast->name, event.name);
    EXPECT_EQ(fast->category, event.category);
    EXPECT_EQ(fast->ts_us, event.ts_us);
    EXPECT_EQ(fast->dur_us, event.dur_us);
    EXPECT_EQ(fast->tid, event.tid);
    EXPECT_EQ(fast->actor, event.actor);
    EXPECT_EQ(fast->span_id, event.span_id);
    EXPECT_EQ(fast->parent_id, event.parent_id);
    EXPECT_EQ(fast->args.size(), 0u);

    // The canonical line is ordinary JSON: the generic path must agree
    // with the fast path field for field (the fallback contract).
    const auto body = obs::JsonObject::parse(line);
    ASSERT_TRUE(body.has_value());
    EXPECT_EQ(body->get_string("kind").value_or(""), "span");
    const auto generic = obs::trace_event_from_json(*body);
    ASSERT_TRUE(generic.has_value());
    EXPECT_EQ(generic->name, fast->name);
    EXPECT_EQ(generic->span_id, fast->span_id);
    EXPECT_EQ(generic->parent_id, fast->parent_id);
}

TEST(SpanCodec, ArgsBearingSpanFallsBackToGenericParse) {
    // An args value is itself a JSON line, so its quotes arrive escaped
    // and the escape-free fast scanner must hand the line to the
    // generic parser — which recovers the args object exactly.
    obs::TraceEvent event;
    event.name = "s3.IndVarRepExt.m_pNodeFree";
    event.category = "mutant-evaluation";
    event.span_id = 0x3ULL;
    event.args.set("case", "s3.t1.c0").set("call", std::uint64_t{7});

    std::string line;
    append_span_line(line, event);
    ASSERT_TRUE(is_span_line(line));
    EXPECT_FALSE(parse_span_line(line).has_value());

    const auto body = obs::JsonObject::parse(line);
    ASSERT_TRUE(body.has_value());
    const auto generic = obs::trace_event_from_json(*body);
    ASSERT_TRUE(generic.has_value());
    EXPECT_EQ(generic->name, event.name);
    EXPECT_EQ(generic->args.to_line(), event.args.to_line());
}

TEST(SpanCodec, RootSpanOmitsParent) {
    obs::TraceEvent event;
    event.name = "items";
    event.category = "phase";
    event.span_id = 0x1ULL;

    std::string line;
    append_span_line(line, event);
    const auto fast = parse_span_line(line);
    ASSERT_TRUE(fast.has_value());
    EXPECT_EQ(fast->parent_id, 0u);
    EXPECT_EQ(fast->args.size(), 0u);
    EXPECT_EQ(line.find("parent"), std::string::npos);
    EXPECT_EQ(line.find("args"), std::string::npos);
}

TEST(SpanCodec, EscapedNameFallsBackToGenericParse) {
    obs::TraceEvent event;
    event.name = "weird \"quoted\" name\n";
    event.category = "method-call";
    event.span_id = 0x2ULL;

    std::string line;
    append_span_line(line, event);
    // The strict scanner refuses escapes; the generic path must still
    // recover the exact name (the write side escaped it correctly).
    EXPECT_FALSE(parse_span_line(line).has_value());
    const auto body = obs::JsonObject::parse(line);
    ASSERT_TRUE(body.has_value());
    const auto generic = obs::trace_event_from_json(*body);
    ASSERT_TRUE(generic.has_value());
    EXPECT_EQ(generic->name, event.name);
}

TEST(SpanCodec, RejectsNonCanonicalLines) {
    EXPECT_FALSE(is_span_line(R"({"kind":"event","data":"{}"})"));
    // Same JSON value, different field order: generic-path territory.
    EXPECT_FALSE(is_span_line(
        R"({"name":"x","cat":"phase","kind":"span","ts":0})"));
    EXPECT_FALSE(parse_span_line(R"({"kind":"span","name":"x"})").has_value());
    EXPECT_FALSE(parse_span_line("").has_value());
}

}  // namespace
}  // namespace stc::serve

// layer_probe: the per-layer half of the benchmark's traced run.
//
// It times calls into each layer's public functions from outside the
// program, on the inputs of one workload (subject, seed, cases, model
// oracle), and records one span per call in memory.  When the probe
// ends it writes the spans as a Chrome trace and prints the per-layer
// metrics as one JSON object on stdout.  The program itself gains no
// span: the counts reported here are the program's own stc::obs
// counters, read from the passes that do a workload's item work.
//
//   layer_probe --subject sortable --seed N --cases C [--model]
//               [--budget-states N]
//               --kill-store STORE.jsonl --scratch DIR --trace OUT.json
//               [--full mutation,sandbox,serve,kill]
//
// Layers named by --full are probed over every item of the workload;
// the others over a small fixed sample, since the workload does not
// exercise them (README.md, "Per-layer metrics").

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "stc/bit/assertions.h"
#include "stc/campaign/result_store.h"
#include "stc/campaign/work_list.h"
#include "stc/driver/generator.h"
#include "stc/fuzz/shrink.h"
#include "stc/driver/runner.h"
#include "stc/kill/kill.h"
#include "stc/kill/search.h"
#include "stc/model/model.h"
#include "stc/mutation/controller.h"
#include "stc/mutation/coverage.h"
#include "stc/mutation/prune.h"
#include "stc/obs/context.h"
#include "stc/oracle/oracle.h"
#include "stc/sandbox/codec.h"
#include "stc/sandbox/worker_pool.h"
#include "stc/serve/builtin_host.h"
#include "stc/serve/dispatch.h"
#include "stc/serve/socket.h"
#include "stc/serve/worker.h"
#include "stc/support/error.h"
#include "stc/tfm/graph.h"
#include "stc/wire/frame.h"

namespace {

using namespace stc;
using Clock = std::chrono::steady_clock;

// Repetitions of the cheap set-up calls; their medians are reported.
constexpr int kReps = 5;
// Sample sizes for layers the workload does not exercise.
constexpr std::size_t kSampleItems = 48;
constexpr std::size_t kSampleSurvivors = 4;
// Mutated suites classified for oracle.classify_us.
constexpr std::size_t kClassifySamples = 32;
// Calls per timed loop for reflect.invoke_ns and the wire codec.
constexpr std::size_t kInvokeLoop = 200000;
constexpr std::size_t kCodecLoops = 50;

template <class T>
void keep(const T& value) {
    asm volatile("" : : "g"(&value) : "memory");
}

struct Span {
    const char* layer;
    const char* name;
    double ts_us;
    double dur_us;
    std::size_t id;
    std::size_t parent;  // 0 = root
};

/// In-memory span recorder; nested time() calls parent on the open one.
class Recorder {
public:
    template <class F>
    double time(const char* layer, const char* name, F&& body) {
        const std::size_t id = spans_.size() + 1;
        const std::size_t parent = open_.empty() ? 0 : open_.back();
        spans_.push_back({layer, name, 0.0, 0.0, id, parent});
        open_.push_back(id);
        const double start = now_us();
        body();
        const double dur = now_us() - start;
        open_.pop_back();
        spans_[id - 1].ts_us = start;
        spans_[id - 1].dur_us = dur;
        return dur;
    }

    /// A span measured by the caller (e.g. between two callbacks).
    void add(const char* layer, const char* name, double ts_us, double dur_us) {
        const std::size_t id = spans_.size() + 1;
        spans_.push_back({layer, name, ts_us, dur_us, id,
                          open_.empty() ? 0 : open_.back()});
    }

    [[nodiscard]] double now_us() const {
        return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
            .count();
    }

    void write_chrome_trace(std::ostream& os) const {
        os << "{\"traceEvents\":[\n";
        char buf[512];
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            std::snprintf(buf, sizeof buf,
                          "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                          "\"ts\":%.3f,\"dur\":%.3f,\"pid\":2,\"tid\":0,"
                          "\"args\":{\"span\":\"p%zu\"%s%s%s}}%s\n",
                          s.name, s.layer, s.ts_us, s.dur_us, s.id,
                          s.parent ? ",\"parent\":\"p" : "",
                          s.parent ? std::to_string(s.parent).c_str() : "",
                          s.parent ? "\"" : "",
                          i + 1 < spans_.size() ? "," : "");
            os << buf;
        }
        os << "],\"displayTimeUnit\":\"ms\"}\n";
    }

private:
    Clock::time_point epoch_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
};

double percentile(std::vector<double> values, double p) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = p * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) { return percentile(values, 0.5); }

/// Median of kReps timed calls of `body`, in ms.
template <class F>
double median_ms(Recorder& rec, const char* layer, const char* name, F&& body) {
    std::vector<double> us;
    for (int r = 0; r < kReps; ++r) us.push_back(rec.time(layer, name, body));
    return median(us) / 1e3;
}

double sum(const std::vector<double>& values) {
    double total = 0.0;
    for (const double v : values) total += v;
    return total;
}

/// Indices of an evenly spaced sample of at most `cap` of `n` items.
std::vector<std::size_t> sample(std::size_t n, std::size_t cap) {
    std::vector<std::size_t> out;
    const std::size_t k = std::min(n, cap);
    for (std::size_t i = 0; i < k; ++i) out.push_back(i * n / k);
    return out;
}

struct Args {
    std::string subject = "sortable";
    std::uint64_t seed = 20010701;
    std::size_t cases = 1;
    bool model = false;
    std::size_t budget_states = kill::SearchOptions{}.budget_states;
    std::string kill_store;
    std::string scratch;
    std::string trace;
    std::set<std::string> full;
};

std::optional<Args> parse_args(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--model") {
            a.model = true;
            continue;
        }
        if (i + 1 >= argc) return std::nullopt;
        const std::string value = argv[++i];
        if (flag == "--subject") {
            a.subject = value;
        } else if (flag == "--seed") {
            a.seed = std::stoull(value);
        } else if (flag == "--cases") {
            a.cases = std::stoull(value);
        } else if (flag == "--budget-states") {
            a.budget_states = std::stoull(value);
        } else if (flag == "--kill-store") {
            a.kill_store = value;
        } else if (flag == "--scratch") {
            a.scratch = value;
        } else if (flag == "--trace") {
            a.trace = value;
        } else if (flag == "--full") {
            std::stringstream list(value);
            for (std::string layer; std::getline(list, layer, ',');) {
                a.full.insert(layer);
            }
        } else {
            return std::nullopt;
        }
    }
    if (a.kill_store.empty() || a.scratch.empty() || a.trace.empty()) {
        return std::nullopt;
    }
    return a;
}

std::uint64_t assertions_checked() {
    return bit::AssertionStats::process_totals().checked;
}

/// The program's item-work counters, under the per-layer metric names.
/// `assertions` is the BIT layer's own count over the same pass (the
/// runner meters it per whole suite only, which pruned items skip).
void fold_counters(const obs::Metrics& metrics, std::uint64_t assertions,
                   std::map<std::string, double>& out) {
    out["driver.method_calls"] = double(metrics.counter("runner.method_calls"));
    out["bit.invariant_checks"] =
        double(metrics.counter("runner.invariant_checks"));
    out["bit.assertions_checked"] = double(assertions);
    out["oracle.suite_compares"] =
        double(metrics.counter("oracle.suite_compares"));
    out["model.compares"] = double(metrics.counter("model.compares"));
}

int run(const Args& a) {
    Recorder rec;
    std::map<std::string, double> out;
    std::size_t mismatches = 0;
    const auto full = [&](const char* layer) { return a.full.count(layer) > 0; };

    const serve::BuiltinTarget* target = serve::find_builtin_target(a.subject);
    if (target == nullptr) throw Error("unknown subject: " + a.subject);
    const serve::BuiltinComponent holder = target->make_component();
    const core::SelfTestableComponent& component = *holder.component;
    const tspec::ComponentSpec& spec = component.spec();
    const reflect::Registry& registry = component.registry();
    const driver::ModelBinding* model = model::binding_for(spec.class_name);
    if (model == nullptr) throw Error("no reference model for " + spec.class_name);

    driver::GeneratorOptions gen;
    gen.seed = a.seed;
    gen.cases_per_transaction = a.cases;

    // tfm + driver: suite generation.
    const tfm::Graph graph = spec.build_tfm();
    out["tfm.enumerate_ms"] = median_ms(rec, "tfm", "Graph::enumerate_transactions", [&] {
        keep(graph.enumerate_transactions(gen.enumeration).size());
    });

    driver::DriverGenerator generator(spec, gen);
    generator.completions(holder.completions);
    driver::TestSuite suite;
    out["driver.generate_ms"] = median_ms(rec, "driver", "DriverGenerator::generate",
                                          [&] { suite = generator.generate(); });

    // driver: the clean golden run and its cases.
    const driver::TestRunner clean(registry, driver::RunnerOptions{});
    const double golden_ms = median_ms(rec, "driver", "TestRunner::run (golden)",
                                       [&] { keep(clean.run(suite).results.size()); });
    out["driver.golden_ms"] = golden_ms;
    {
        driver::RunnerOptions counted;
        counted.obs.metrics = obs::Metrics::make();
        (void)driver::TestRunner(registry, counted).run(suite);
        const double calls = double(counted.obs.metrics.counter("runner.method_calls"));
        out["driver.ns_per_call"] = calls > 0 ? golden_ms * 1e6 / calls : 0.0;
    }
    const reflect::ClassBinding& binding = registry.at(suite.class_name);
    std::vector<double> case_us;
    for (int r = 0; r < 3; ++r) {
        for (const driver::TestCase& tc : suite.cases) {
            case_us.push_back(rec.time("driver", "TestRunner::run_case", [&] {
                keep(clean.run_case(binding, tc).verdict);
            }));
        }
    }
    out["driver.case_us_p50"] = percentile(case_us, 0.5);
    out["driver.case_us_p99"] = percentile(case_us, 0.99);

    // reflect: one cheap accessor, called through the binding in a loop.
    {
        void* object = binding.construct({});
        const reflect::Args none;
        std::vector<double> per_call_ns;
        for (int r = 0; r < kReps; ++r) {
            const double us = rec.time("reflect", "ClassBinding::invoke (loop)", [&] {
                for (std::size_t i = 0; i < kInvokeLoop; ++i) {
                    keep(binding.invoke(object, "GetCount", none));
                }
            });
            per_call_ns.push_back(us * 1e3 / double(kInvokeLoop));
        }
        binding.destroy(object);
        out["reflect.invoke_ns"] = median(per_call_ns);
    }

    // model: the lockstep reference model's share of a clean run.
    {
        driver::RunnerOptions with_model;
        with_model.model = model;
        const driver::TestRunner lockstep(registry, with_model);
        out["model.lockstep_ms"] =
            median_ms(rec, "model", "TestRunner::run (lockstep)",
                      [&] { keep(lockstep.run(suite).results.size()); }) -
            golden_ms;
    }

    // mutation: the workload's own runner (with the model when it uses
    // one), coverage index, prune plan, then every item's evaluation.
    mutation::EngineOptions engine;
    if (a.model) engine.runner.model = model;
    const driver::TestRunner runner(registry, engine.runner);
    mutation::CoveredRun covered;
    out["mutation.coverage_ms"] = median_ms(rec, "mutation", "run_with_coverage", [&] {
        covered = mutation::run_with_coverage(registry, engine.runner, suite);
    });
    const oracle::GoldenRecord golden = oracle::GoldenRecord::from(covered.result);
    mutation::PrunePlanOptions plan_options;
    plan_options.memoize = !a.model;  // as the scheduler: a model disables memoization
    mutation::PrunePlan plan;
    out["mutation.prune_plan_ms"] = median_ms(rec, "mutation", "build_prune_plan", [&] {
        plan = mutation::build_prune_plan(runner, binding, suite, covered.index, nullptr,
                                          nullptr, {}, plan_options);
    });

    const std::vector<mutation::Mutant> mutants = target->mutants();
    mutation::EngineOptions counted = engine;
    counted.obs.metrics = obs::Metrics::make();
    counted.runner.obs = counted.obs;
    const driver::TestRunner counted_runner(registry, counted.runner);
    const oracle::GoldenRecord no_probe;
    const auto evaluate = [&](std::size_t index, mutation::PruneStats* stats) {
        return mutation::evaluate_mutant_pruned(mutants[index], counted_runner, binding,
                                                suite, golden, nullptr, nullptr,
                                                no_probe, plan, counted, stats);
    };
    const std::vector<std::size_t> eval_items =
        sample(mutants.size(), full("mutation") ? mutants.size() : kSampleItems);
    std::map<std::size_t, mutation::MutantOutcome> outcome_of;
    mutation::PruneStats pairs;
    std::vector<double> eval_us;
    const std::uint64_t eval_assertions_before = assertions_checked();
    for (const std::size_t i : eval_items) {
        const double us = rec.time("mutation", "evaluate_mutant_pruned",
                                   [&] { outcome_of[i] = evaluate(i, &pairs); });
        eval_us.push_back(us);
    }
    out["mutation.eval_us_p50"] = percentile(eval_us, 0.5);
    out["mutation.eval_us_p99"] = percentile(eval_us, 0.99);
    out["mutation.executed_pairs"] = double(pairs.executed_pairs);
    out["mutation.pruned_pairs"] = double(pairs.pruned_pairs);
    out["mutation.memoized_pairs"] = double(pairs.memoized_pairs);
    out["mutation.memoized_calls"] = double(pairs.memoized_calls);
    const double all_pairs = double(pairs.executed_pairs + pairs.pruned_pairs);
    out["mutation.prune_ratio"] = all_pairs > 0 ? double(pairs.pruned_pairs) / all_pairs : 0.0;
    out["mutation.memo_ratio"] =
        pairs.executed_pairs > 0
            ? double(pairs.memoized_pairs) / double(pairs.executed_pairs)
            : 0.0;
    fold_counters(counted.obs.metrics, assertions_checked() - eval_assertions_before,
                  out);

    // oracle: classification of whole mutated (unpruned) suite runs.
    {
        std::vector<double> classify_us;
        for (const std::size_t i : sample(mutants.size(), kClassifySamples)) {
            driver::SuiteResult observed;
            {
                const mutation::MutantActivation activation(mutants[i]);
                observed = runner.run(suite);
            }
            classify_us.push_back(rec.time("oracle", "classify_suite", [&] {
                keep(oracle::classify_suite(golden, observed, engine.oracle));
            }));
        }
        out["oracle.classify_us"] = median(classify_us);
    }

    // campaign: result-store appends, then a full store read back.
    const std::string fingerprint = "perfbench-probe";
    const std::vector<campaign::WorkItem> work =
        campaign::build_work_list(a.seed, fingerprint, suite, mutants);
    const std::string store_path = a.scratch + "/probe-store.jsonl";
    std::remove(store_path.c_str());
    {
        campaign::ResultStore store(store_path, fingerprint);
        std::vector<double> append_us;
        for (const campaign::WorkItem& item : work) {
            const mutation::MutantOutcome& outcome =
                std::next(outcome_of.begin(), long(item.index % outcome_of.size()))->second;
            campaign::ItemRecord record;
            record.key = item.key;
            record.mutant_id = item.mutant_id;
            record.item_index = item.index;
            record.fate = mutation::to_string(outcome.fate);
            record.reason = oracle::to_string(outcome.reason);
            record.hit_by_suite = outcome.hit_by_suite;
            record.item_seed = item.item_seed;
            append_us.push_back(rec.time("campaign", "ResultStore::append",
                                         [&] { store.append(record); }));
        }
        out["campaign.store_append_us"] = sum(append_us) / double(append_us.size());
    }
    out["campaign.store_load_ms"] = median_ms(rec, "campaign", "peek_store", [&] {
        std::string error;
        if (!campaign::peek_store(store_path, &error)) throw Error(error);
    });

    // sandbox: one fork-server worker, one item per round trip.  The
    // child evaluates exactly as the in-process pass does, and each call
    // is followed by the same evaluation in-process, so the difference
    // is the sandbox's own cost.
    {
        sandbox::SandboxRunner sandboxed(
            [&](const std::string& payload) {
                mutation::PruneStats stats;
                const mutation::MutantOutcome outcome =
                    evaluate(std::stoull(payload), &stats);
                return sandbox::encode_outcome(outcome, &stats);
            },
            sandbox::SandboxLimits{});
        (void)sandboxed.call(std::to_string(eval_items.front()));  // fork the worker
        const std::vector<std::size_t> items =
            full("sandbox") ? eval_items
                            : std::vector<std::size_t>(
                                  eval_items.begin(),
                                  eval_items.begin() +
                                      long(std::min(kSampleItems, eval_items.size())));
        std::vector<double> call_us;
        std::vector<double> overhead_us;
        for (const std::size_t i : items) {
            sandbox::TaskResult result;
            const double us = rec.time("sandbox", "SandboxRunner::call",
                                       [&] { result = sandboxed.call(std::to_string(i)); });
            call_us.push_back(us);
            const double local_us = rec.time("mutation", "evaluate_mutant_pruned (in-process reference)",
                                             [&] { keep(evaluate(i, nullptr).fate); });
            overhead_us.push_back(us - local_us);
            const auto decoded = result.ok() ? sandbox::decode_outcome(result.payload)
                                             : std::nullopt;
            if (!decoded || decoded->fate != outcome_of[i].fate ||
                decoded->reason != outcome_of[i].reason) {
                ++mismatches;
            }
        }
        out["sandbox.call_us_p50"] = percentile(call_us, 0.5);
        out["sandbox.call_us_p99"] = percentile(call_us, 0.99);
        out["sandbox.overhead_us"] = median(overhead_us);
        out["sandbox.respawns"] = double(sandboxed.stats().respawned);
    }

    // serve + wire: the worker-side rebuild, then one loopback worker
    // driven by a coordinator; with one item in flight, the gap between
    // two result callbacks is one Work -> Result round trip.
    serve::BuiltinCampaignConfig config;
    config.component = a.subject;
    config.generator = gen;
    config.model = a.model;
    std::unique_ptr<serve::BuiltinCampaign> host;
    out["serve.hello_ms"] = median_ms(rec, "serve", "BuiltinCampaign::open", [&] {
        std::string error;
        host = serve::BuiltinCampaign::open(config, &error);
        if (!host) throw Error(error);
    });
    std::vector<std::string> payloads;
    {
        serve::ServeOptions serve_options;
        serve_options.once = true;
        serve::WorkerDaemon daemon(serve::builtin_session_factory(), serve_options);
        const std::uint16_t port = daemon.bind();
        std::thread serving([&daemon] { daemon.serve(); });

        std::vector<campaign::WorkItem> items;
        for (const std::size_t i :
             sample(host->items().size(),
                    full("serve") ? host->items().size() : kSampleItems)) {
            items.push_back(host->items()[i]);
        }
        serve::DispatchOptions dispatch;
        dispatch.workers = serve::parse_endpoints("127.0.0.1:" + std::to_string(port));
        dispatch.hello = serve::make_hello(config, host->fingerprint());
        dispatch.expected_fingerprint = host->fingerprint();
        std::vector<double> stamps;
        std::vector<std::string> ids;
        try {
            serve::Coordinator coordinator(std::move(dispatch));
            rec.time("serve", "Coordinator::run", [&] {
                (void)coordinator.run(items, [&](const campaign::WorkItem& item,
                                                 const obs::JsonObject& result) {
                    stamps.push_back(rec.now_us());
                    ids.push_back(item.mutant_id);
                    payloads.push_back(result.to_line());
                });
            });
        } catch (...) {
            daemon.stop();
            serving.join();
            throw;
        }
        serving.join();
        if (payloads.size() != items.size()) ++mismatches;
        for (std::size_t k = 0; k < payloads.size(); ++k) {
            const auto decoded = sandbox::decode_outcome(payloads[k]);
            const auto expected = host->evaluate(ids[k]);
            if (!decoded || decoded->fate != expected.fate ||
                decoded->reason != expected.reason) {
                ++mismatches;
            }
        }
        std::vector<double> rtt_us;
        for (std::size_t k = 1; k < stamps.size(); ++k) {
            const double gap = stamps[k] - stamps[k - 1];
            rec.add("serve", "item round trip", stamps[k - 1], gap);
            rtt_us.push_back(gap);
        }
        out["serve.item_rtt_us_p50"] = percentile(rtt_us, 0.5);
        out["serve.item_rtt_us_p99"] = percentile(rtt_us, 0.99);
    }
    {
        std::vector<std::string> frames;
        double bytes = 0.0;
        for (const std::string& payload : payloads) {
            frames.push_back(wire::encode_message(wire::MessageType::Result, payload));
            bytes += double(frames.back().size());
        }
        out["wire.bytes_per_item"] = bytes / double(frames.size());
        const double messages = double(frames.size() * kCodecLoops);
        const double encode_us = rec.time("wire", "encode_message (loop)", [&] {
            for (std::size_t r = 0; r < kCodecLoops; ++r) {
                for (const std::string& payload : payloads) {
                    keep(wire::encode_message(wire::MessageType::Result, payload).size());
                }
            }
        });
        out["wire.encode_us"] = encode_us / messages;
        const double decode_us = rec.time("wire", "Decoder::next (loop)", [&] {
            wire::Decoder decoder;
            wire::Message message;
            for (std::size_t r = 0; r < kCodecLoops; ++r) {
                for (const std::string& frame : frames) {
                    decoder.feed(frame);
                    if (decoder.next(&message) != wire::Decoder::Status::Ok) {
                        ++mismatches;
                    }
                }
            }
        });
        out["wire.decode_us"] = decode_us / messages;
    }

    // kill: per-survivor product searches over the workload's pre-kill
    // store, then shrinking of the verified killers, then the store
    // rewrite.
    {
        std::string error;
        std::optional<campaign::StorePeek> peek = campaign::peek_store(a.kill_store, &error);
        if (!peek) throw Error(error);
        std::map<std::string, const mutation::Mutant*> by_id;
        for (const mutation::Mutant& m : mutants) by_id.emplace(m.id(), &m);
        std::vector<std::size_t> survivors;
        for (std::size_t i = 0; i < peek->records.size(); ++i) {
            if (peek->records[i].fate == "alive") survivors.push_back(i);
        }
        if (!full("kill") && survivors.size() > kSampleSurvivors) {
            survivors.resize(kSampleSurvivors);
        }

        kill::SearchOptions search_options;
        search_options.seed = a.seed;
        search_options.budget_states = a.budget_states;
        search_options.runner.model = model;
        search_options.obs.metrics = obs::Metrics::make();
        search_options.runner.obs = search_options.obs;
        const kill::ProductSearch search(spec, registry, holder.completions,
                                         search_options);
        std::vector<double> search_ms;
        std::map<std::size_t, kill::SearchOutcome> verified;
        std::size_t states = 0;
        std::size_t candidates = 0;
        const std::uint64_t search_assertions_before = assertions_checked();
        for (const std::size_t i : survivors) {
            kill::SearchOutcome outcome;
            const double us = rec.time("kill", "ProductSearch::find_killer", [&] {
                outcome = search.find_killer(*by_id.at(peek->records[i].mutant_id));
            });
            search_ms.push_back(us / 1e3);
            states += outcome.stats.states_expanded;
            candidates += outcome.stats.candidates_executed;
            if (outcome.status == kill::SearchStatus::Verified) {
                verified.emplace(i, outcome);
            }
        }
        out["kill.search_ms_p50"] = percentile(search_ms, 0.5);
        out["kill.search_ms_max"] = percentile(search_ms, 1.0);
        out["kill.states"] = double(states);
        out["kill.candidates"] = double(candidates);
        out["kill.verified_ratio"] =
            survivors.empty() ? 0.0 : double(verified.size()) / double(survivors.size());
        if (full("kill")) {
            fold_counters(search_options.obs.metrics,
                          assertions_checked() - search_assertions_before, out);
        }

        // Shrinking each verified killer with the kill pass's predicate:
        // the clean leg passes and the mutated leg is killed for the same
        // reason.
        const tfm::Graph widened = kill::ProductSearch::specification_graph(spec);
        driver::RunnerOptions shrink_runner_options = search_options.runner;
        shrink_runner_options.obs = obs::Context{};
        const driver::TestRunner shrink_runner(registry, shrink_runner_options);
        fuzz::ShrinkOptions shrink_options;
        shrink_options.max_steps = kill::KillOptions{}.max_shrink_steps;
        double shrink_us = 0.0;
        for (const auto& [i, outcome] : verified) {
            const mutation::Mutant& mutant = *by_id.at(peek->records[i].mutant_id);
            const fuzz::Predicate still_kills = [&](const driver::TestCase& tc) {
                driver::TestSuite single;
                single.class_name = spec.class_name;
                single.seed = a.seed;
                single.cases.push_back(tc);
                const driver::SuiteResult clean_run = shrink_runner.run(single);
                for (const driver::TestResult& r : clean_run.results) {
                    if (!r.passed()) return false;
                }
                driver::SuiteResult mutated;
                {
                    const mutation::MutantActivation activation(mutant);
                    mutated = shrink_runner.run(single);
                }
                return oracle::classify_suite_differential(
                           oracle::GoldenRecord::from(clean_run), mutated,
                           search_options.oracle)
                           .with_model == outcome.reason;
            };
            shrink_us += rec.time("kill", "fuzz::shrink_case (killer)", [&] {
                keep(fuzz::shrink_case(spec, outcome.widened ? widened : graph,
                                       outcome.killer, still_kills, shrink_options)
                         .minimized.calls.size());
            });
        }
        out["kill.shrink_ms"] = shrink_us / 1e3;

        const std::string rewrite_path = a.scratch + "/probe-rewrite.jsonl";
        out["kill.store_rewrite_ms"] = median_ms(rec, "kill", "rewrite_store", [&] {
            campaign::rewrite_store(rewrite_path, peek->fingerprint, peek->records);
        });
    }

    {
        std::ofstream trace(a.trace);
        if (!trace) throw Error("cannot write trace: " + a.trace);
        rec.write_chrome_trace(trace);
    }
    std::cout << "{\"mismatches\":" << mismatches << ",\"metrics\":{";
    bool first = true;
    char buf[64];
    for (const auto& [name, value] : out) {
        std::snprintf(buf, sizeof buf, "%.9g", value);
        std::cout << (first ? "" : ",") << "\"" << name << "\":" << buf;
        first = false;
    }
    std::cout << "}}\n";
    return mismatches == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    const std::optional<Args> args = parse_args(argc, argv);
    if (!args) {
        std::cerr << "usage: layer_probe --subject S --seed N --cases C [--model] [--budget-states N]"
                     " --kill-store F --scratch D --trace F [--full L,...]\n";
        return 2;
    }
    try {
        return run(*args);
    } catch (const std::exception& e) {
        std::cerr << "layer_probe: " << e.what() << "\n";
        return 1;
    }
}

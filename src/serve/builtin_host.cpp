#include "stc/serve/builtin_host.h"

#include <chrono>
#include <map>
#include <utility>

#include "stc/campaign/outcome_codec.h"
#include "stc/campaign/scheduler.h"
#include "stc/core/self_testable.h"
#include "stc/mfc/component.h"
#include "stc/model/model.h"
#include "stc/sandbox/codec.h"
#include "stc/support/error.h"
#include "stc/support/strings.h"
#include "stc/tfm/coverage.h"

namespace stc::serve {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/// One mfc component target: an ElementPool arena kept alive behind the
/// component, completions attached — the exact setup `concat campaign`
/// used to hand-build.
BuiltinTarget make_mfc_target(bool sortable) {
    BuiltinTarget target;
    target.make_component = [sortable] {
        struct State {
            mfc::ElementPool pool;
            driver::CompletionRegistry completions;
        };
        auto state = std::make_shared<State>();
        state->completions = mfc::make_completions(state->pool);
        BuiltinComponent out;
        out.keepalive = state;
        out.component.emplace(sortable ? core::SelfTestableComponent(
                                             mfc::sortable_spec(),
                                             mfc::sortable_binding())
                                       : core::SelfTestableComponent(
                                             mfc::coblist_spec(),
                                             mfc::coblist_binding()));
        out.component->set_completions(state->completions);
        out.completions = &state->completions;
        return out;
    };
    target.mutants = [sortable] {
        return mutation::enumerate_mutants(
            mfc::descriptors(), sortable ? "CSortableObList" : "CObList");
    };
    return target;
}

std::map<std::string, BuiltinTarget>& target_registry() {
    static std::map<std::string, BuiltinTarget> registry = [] {
        std::map<std::string, BuiltinTarget> seeded;
        seeded.emplace("coblist", make_mfc_target(false));
        seeded.emplace("sortable", make_mfc_target(true));
        return seeded;
    }();
    return registry;
}

}  // namespace

void register_builtin_target(const std::string& name, BuiltinTarget target) {
    target_registry()[name] = std::move(target);
}

const BuiltinTarget* find_builtin_target(const std::string& name) {
    const auto& registry = target_registry();
    const auto it = registry.find(name);
    return it == registry.end() ? nullptr : &it->second;
}

std::vector<std::string> builtin_target_names() {
    std::vector<std::string> names;
    for (const auto& [name, _] : target_registry()) names.push_back(name);
    return names;
}

std::optional<BuiltinInputs> make_builtin_inputs(
    const BuiltinCampaignConfig& config, std::string* error) {
    const BuiltinTarget* target = find_builtin_target(config.component);
    if (target == nullptr) {
        if (error != nullptr) {
            *error = "unknown component '" + config.component +
                     "' (expected one of: " +
                     support::join(builtin_target_names(), ", ") + ")";
        }
        return std::nullopt;
    }
    BuiltinInputs in;
    in.holder = target->make_component();
    const core::SelfTestableComponent& component = *in.holder.component;
    in.suite = component.generate_tests(config.generator);
    if (config.probe) {
        driver::GeneratorOptions probe = config.generator;
        probe.seed = config.generator.seed ^ 0x9e3779b97f4a7c15ULL;
        probe.cases_per_transaction = config.generator.cases_per_transaction + 1;
        in.probe = component.generate_tests(probe);
    }
    in.mutants = target->mutants();
    in.options.seed = config.generator.seed;
    in.options.prune = config.prune;
    if (config.model) {
        in.options.engine.runner.model = model::binding_for(in.suite.class_name);
        if (in.options.engine.runner.model == nullptr) {
            if (error != nullptr) {
                *error = "no reference model for '" + in.suite.class_name +
                         "' (models exist for: " +
                         support::join(model::modeled_classes(), " ") + ")";
            }
            return std::nullopt;
        }
    }
    return in;
}

obs::JsonObject make_hello(const BuiltinCampaignConfig& config,
                           const std::string& fingerprint) {
    return obs::JsonObject()
        .set("component", config.component)
        .set("seed", config.generator.seed)
        .set("max_visits",
             static_cast<std::uint64_t>(
                 config.generator.enumeration.max_node_visits))
        .set("cases", static_cast<std::uint64_t>(
                          config.generator.cases_per_transaction))
        .set("criterion", tfm::to_string(config.generator.criterion))
        .set("states", config.generator.include_entry_states)
        .set("probe", config.probe)
        .set("model", config.model)
        .set("prune", config.prune)
        .set("fingerprint", fingerprint);
}

std::optional<BuiltinCampaignConfig> parse_hello(const obs::JsonObject& hello,
                                                 std::string* error) {
    BuiltinCampaignConfig config;
    const auto component = hello.get_string("component");
    if (!component) {
        if (error != nullptr) *error = "hello: missing 'component'";
        return std::nullopt;
    }
    config.component = *component;
    if (const auto seed = hello.get_uint("seed")) config.generator.seed = *seed;
    if (const auto visits = hello.get_uint("max_visits")) {
        config.generator.enumeration.max_node_visits =
            static_cast<std::size_t>(*visits);
    }
    if (const auto cases = hello.get_uint("cases")) {
        config.generator.cases_per_transaction =
            static_cast<std::size_t>(*cases);
    }
    if (const auto criterion = hello.get_string("criterion")) {
        const auto parsed = tfm::criterion_from_string(*criterion);
        if (!parsed) {
            if (error != nullptr) {
                *error = "hello: unknown criterion '" + *criterion + "'";
            }
            return std::nullopt;
        }
        config.generator.criterion = *parsed;
    }
    config.generator.include_entry_states =
        hello.get_bool("states").value_or(false);
    config.probe = hello.get_bool("probe").value_or(false);
    config.model = hello.get_bool("model").value_or(false);
    // A pre-prune coordinator never prunes; defaulting to false keeps
    // such mixed pairs agreeing (their fingerprints match too, since
    // neither absorbs the prune token).
    config.prune = hello.get_bool("prune").value_or(false);
    return config;
}

struct BuiltinCampaign::Impl {
    BuiltinInputs in;
    std::string fingerprint;
    std::vector<campaign::WorkItem> items;
    std::optional<campaign::ExecutionContext> context;
};

BuiltinCampaign::BuiltinCampaign() : impl_(std::make_unique<Impl>()) {}
BuiltinCampaign::~BuiltinCampaign() = default;

std::unique_ptr<BuiltinCampaign> BuiltinCampaign::open(
    const BuiltinCampaignConfig& config, std::string* error,
    const obs::Context& obs) {
    auto in = make_builtin_inputs(config, error);
    if (!in) return nullptr;
    std::unique_ptr<BuiltinCampaign> out(new BuiltinCampaign());
    Impl& s = *out->impl_;
    s.in = std::move(*in);
    s.in.options.engine.obs = obs;
    s.in.options.engine.runner.obs = obs;
    const reflect::Registry& registry = s.in.holder.component->registry();
    // Campaign identity, computed exactly as the in-process scheduler
    // does — this is the value the handshake cross-checks.
    s.fingerprint = campaign::CampaignScheduler(registry, s.in.options)
                        .fingerprint(s.in.suite, s.in.mutants, s.in.probe_suite());
    s.items = campaign::build_work_list(config.generator.seed, s.fingerprint,
                                        s.in.suite, s.in.mutants);
    s.context.emplace(registry, s.in.suite, s.in.probe_suite(), s.in.mutants,
                      s.in.options.engine, config.prune);
    return out;
}

const driver::TestSuite& BuiltinCampaign::suite() const noexcept {
    return impl_->in.suite;
}
const std::string& BuiltinCampaign::fingerprint() const noexcept {
    return impl_->fingerprint;
}
const std::vector<campaign::WorkItem>& BuiltinCampaign::items() const noexcept {
    return impl_->items;
}
bool BuiltinCampaign::baseline_clean() const noexcept {
    return impl_->context->golden().all_passed();
}
bool BuiltinCampaign::pruned() const noexcept {
    return impl_->context->pruned();
}

mutation::MutantOutcome BuiltinCampaign::evaluate(
    const std::string& mutant_id, mutation::PruneStats* stats) const {
    for (const auto& mutant : impl_->in.mutants) {
        if (mutant.id() == mutant_id) {
            return impl_->context->evaluate(mutant, stats);
        }
    }
    throw Error("unknown mutant '" + mutant_id + "' for class " +
                impl_->in.suite.class_name);
}

namespace {

class BuiltinSession final : public Session {
public:
    explicit BuiltinSession(std::unique_ptr<BuiltinCampaign> campaign)
        : campaign_(std::move(campaign)) {}

    [[nodiscard]] const std::string& fingerprint() const override {
        return campaign_->fingerprint();
    }

    [[nodiscard]] obs::JsonObject evaluate(
        const obs::JsonObject& work) override {
        const auto item = work.get_uint("item");
        const auto mutant_id = work.get_string("mutant");
        if (!item || !mutant_id) {
            throw Error("work frame missing 'item' or 'mutant'");
        }
        const auto t0 = Clock::now();
        mutation::PruneStats stats;
        const mutation::MutantOutcome outcome =
            campaign_->evaluate(*mutant_id, &stats);
        // Result payload = the campaign outcome codec plus the dispatch
        // bookkeeping.  Prune counters ride along only when the fast
        // tier ran, so an unpruned reply carries no misleading zeros.
        obs::JsonObject payload;
        payload.set("item", *item).set("mutant", *mutant_id);
        campaign::encode_outcome(payload, outcome);
        if (campaign_->pruned()) campaign::encode_prune_stats(payload, stats);
        payload.set("wall_ms", ms_since(t0));
        return payload;
    }

private:
    std::unique_ptr<BuiltinCampaign> campaign_;
};

}  // namespace

SessionFactory builtin_session_factory() {
    return [](const obs::JsonObject& hello, const obs::Context& obs,
              std::string* error) -> std::unique_ptr<Session> {
        const auto config = parse_hello(hello, error);
        if (!config) return nullptr;
        auto campaign = BuiltinCampaign::open(*config, error, obs);
        if (campaign == nullptr) return nullptr;
        const std::string theirs = hello.get_string("fingerprint").value_or("");
        if (!theirs.empty() && theirs != campaign->fingerprint()) {
            if (error != nullptr) {
                *error = "fingerprint mismatch: coordinator " + theirs +
                         " vs worker " + campaign->fingerprint();
            }
            return nullptr;
        }
        return std::make_unique<BuiltinSession>(std::move(campaign));
    };
}

RemoteExecutor::RemoteExecutor(BuiltinCampaignConfig config,
                               DispatchOptions options,
                               std::function<void(const obs::JsonObject&)> observe)
    : config_(std::move(config)),
      options_(std::move(options)),
      observe_(std::move(observe)) {
    stats_.workers = options_.workers.size();
}

void RemoteExecutor::observe(const obs::JsonObject& event) {
    if (observe_) observe_(event);
}

campaign::ExecutorStats RemoteExecutor::run(const Batch& batch) {
    // A fully resumed campaign has nothing to ship: it must not need a
    // reachable worker just to execute zero items.
    if (batch.pending.empty()) return {};
    DispatchOptions options = options_;
    options.hello = make_hello(config_, batch.fingerprint);
    options.expected_fingerprint = batch.fingerprint;
    options.telemetry = batch.emit;
    Coordinator coordinator(std::move(options));
    stats_ = coordinator.run(batch.pending, [&](const campaign::WorkItem& item,
                                                const obs::JsonObject& reply) {
        campaign::ItemResult result;
        const auto outcome = campaign::decode_outcome(reply);
        result.outcome =  // a Result that does not decode: misbehaving worker
            outcome ? *outcome : sandbox::outcome_from_termination("worker-exit:-3");
        result.stats = campaign::decode_prune_stats(reply);
        result.worker = reply.get_uint("worker").value_or(0);
        result.wall_ms = reply.get_double("wall_ms").value_or(0.0);
        batch.done(item, std::move(result));
    });
    campaign::ExecutorStats stats;
    stats.workers = stats_.workers_connected;
    return stats;
}

}  // namespace stc::serve

#include "stc/kill/search.h"

#include <deque>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "stc/campaign/seed.h"
#include "stc/mutation/controller.h"
#include "stc/mutation/coverage.h"
#include "stc/support/rng.h"
#include "stc/support/strings.h"

namespace stc::kill {

const char* to_string(SearchStatus status) noexcept {
    switch (status) {
        case SearchStatus::Verified: return "verified";
        case SearchStatus::SiteUnreachable: return "site-unreachable";
        case SearchStatus::SearchExhausted: return "search-exhausted";
        case SearchStatus::BudgetExhausted: return "budget-exhausted";
    }
    return "?";
}

namespace {

/// Canonical argument assignment for one (mutant, round): every method
/// gets ONE positive call (and, when the domain admits an out-of-domain
/// value, one negative call) synthesized up front from a seed derived
/// with campaign::derive_item_seed.  Identical arguments for identical
/// methods collapse product states that differ only in value noise,
/// which is what makes the model-state dedupe effective.
struct CallTables {
    std::map<std::string, driver::MethodCall> positive;
    std::map<std::string, driver::MethodCall> negative;
    std::set<std::string> incomplete;  ///< method ids with a placeholder arg
};

CallTables build_tables(const tspec::ComponentSpec& spec,
                        const driver::CompletionRegistry* completions,
                        std::uint64_t seed, const std::string& mutant_id,
                        std::size_t round) {
    support::Pcg32 rng(campaign::derive_item_seed(
        seed, mutant_id, "kill-values-r" + std::to_string(round)));
    CallTables tables;
    for (const tspec::MethodSpec& method : spec.methods) {
        bool needs = false;
        tables.positive[method.id] =
            driver::synthesize_call(method, rng, round, completions,
                                    driver::ValuePolicy::Random, &needs);
        if (needs) tables.incomplete.insert(method.id);
    }
    for (const tspec::MethodSpec& method : spec.methods) {
        if (method.is_constructor() || method.is_destructor()) continue;
        if (!driver::DriverGenerator::can_reject(method)) continue;
        bool needs = false;
        tables.negative[method.id] = driver::synthesize_call(
            method, rng, round, completions, driver::ValuePolicy::Random,
            &needs, /*expect_rejection=*/true);
        if (needs) tables.incomplete.insert(method.id);
    }
    return tables;
}

/// One product state of the bounded search: a TFM node paired with the
/// reference model's abstract-state projection of the body executed so
/// far.  `armed` records that the mutant's site has provably been
/// traversed; armed states are never deduplicated (the model projection
/// cannot see the mutant's latent corruption, so two armed states with
/// equal projections are NOT interchangeable).
struct SearchState {
    tfm::NodeIndex node = 0;
    std::vector<tfm::NodeIndex> path;
    std::vector<driver::MethodCall> calls;
    bool armed = false;
    bool incomplete = false;
    std::size_t depth = 0;
    std::string model_key;
};

struct Ctx {
    const tspec::ComponentSpec& spec;
    const reflect::Registry& registry;
    const SearchOptions& options;
    const mutation::Mutant& mutant;
    const CallTables& tables;
    /// t-spec ids of the methods that may run the mutated site.
    const std::set<std::string>& mutated_ids;
    std::size_t* budget_used;
    std::size_t* case_counter;
    SearchStats* stats;
    bool* any_armed;
};

std::vector<driver::MethodCall> node_group(const tfm::Node& node,
                                           const CallTables& tables,
                                           bool* incomplete) {
    std::vector<driver::MethodCall> out;
    out.reserve(node.method_ids.size());
    for (const std::string& entry : node.method_ids) {
        const std::string id = tspec::strip_negative_marker(entry);
        if (tables.incomplete.count(id) != 0) *incomplete = true;
        if (tspec::is_negative_call(entry)) {
            const auto it = tables.negative.find(id);
            if (it != tables.negative.end()) {
                out.push_back(it->second);
                continue;
            }
            // No out-of-domain value exists: fall through to the
            // positive call so the group width still matches the node.
        }
        const auto it = tables.positive.find(id);
        if (it != tables.positive.end()) out.push_back(it->second);
    }
    return out;
}

bool group_contains(const tfm::Node& node, const std::set<std::string>& mutated_ids) {
    for (const std::string& entry : node.method_ids) {
        if (mutated_ids.count(tspec::strip_negative_marker(entry)) != 0) return true;
    }
    return false;
}

/// Product-state abstraction of `calls` (constructor first, no
/// destructor): replay through a fresh lockstep model.  Rejected calls
/// leave the model untouched (the component must absorb them); an
/// unmodeled call yields a sticky marker that simply never collides
/// with a healthy projection.  Without a model the abstraction degrades
/// to the path depth — still sound (dedupe only collapses states the
/// abstraction cannot distinguish), just coarser.
std::string model_key_of(const driver::ModelBinding* model,
                         const std::vector<driver::MethodCall>& calls,
                         std::size_t depth) {
    if (model == nullptr || !model->valid()) {
        return "depth=" + std::to_string(depth);
    }
    const std::unique_ptr<driver::LockstepModel> replay = model->factory();
    if (!replay || calls.empty() || !calls.front().is_constructor ||
        !replay->construct(calls.front().arguments)) {
        return "<unmodeled>";
    }
    for (std::size_t i = 1; i < calls.size(); ++i) {
        if (calls[i].expect_rejection) continue;
        if (!replay->apply(calls[i]).modeled) return "<unmodeled>";
    }
    return replay->abstract_state();
}

/// Extend `state`'s body into a complete executable transaction by
/// steering to a death node along shortest hops (deterministic:
/// Graph::next_hop_to_death).  nullopt when no death is reachable.
std::optional<driver::TestCase> build_candidate(
    const Ctx& ctx, const tfm::Graph& graph,
    const std::vector<std::optional<tfm::NodeIndex>>& hops,
    const SearchState& state) {
    std::vector<tfm::NodeIndex> path = state.path;
    std::vector<driver::MethodCall> calls = state.calls;
    bool incomplete = state.incomplete;
    tfm::NodeIndex node = state.node;
    while (!graph.is_death(node)) {
        const std::optional<tfm::NodeIndex> hop = hops[node];
        if (!hop) return std::nullopt;
        node = *hop;
        path.push_back(node);
        const std::vector<driver::MethodCall> group =
            node_group(graph.node(node), ctx.tables, &incomplete);
        calls.insert(calls.end(), group.begin(), group.end());
    }
    driver::TestCase tc;
    tc.id = "K" + std::to_string((*ctx.case_counter)++);
    tc.transaction.path = std::move(path);
    tc.transaction_text = graph.describe(tc.transaction);
    tc.calls = std::move(calls);
    tc.needs_completion = incomplete;
    return tc;
}

struct Eval {
    bool covered = false;   ///< clean run consulted the mutant's site
    bool clean_ok = false;  ///< golden leg passed (usable baseline)
    bool verified = false;
    oracle::KillReason reason = oracle::KillReason::None;
    bool model_only = false;
    driver::TestCase candidate;
};

/// The execution gate: steer the state to death, run the candidate
/// CLEAN under a coverage recorder (arming evidence + golden baseline),
/// and — when the site is or was traversed — run it against the REAL
/// mutant and classify differentially.  A candidate is only ever
/// `verified` after this second execution killed the actual mutant.
Eval evaluate(const Ctx& ctx, const tfm::Graph& graph,
              const std::vector<std::optional<tfm::NodeIndex>>& hops,
              const SearchState& state, bool already_armed) {
    Eval ev;
    const std::optional<driver::TestCase> candidate =
        build_candidate(ctx, graph, hops, state);
    if (!candidate) return ev;
    ev.candidate = *candidate;

    driver::TestSuite suite;
    suite.class_name = ctx.spec.class_name;
    suite.seed = ctx.options.seed;
    suite.cases.push_back(ev.candidate);

    driver::RunnerOptions ro = ctx.options.runner;
    ro.promote_divergence = false;
    ro.log_path.clear();
    ro.observer = nullptr;

    if (!already_armed) ++ctx.stats->arming_checks;
    const mutation::CoveredRun clean =
        mutation::run_with_coverage(ctx.registry, ro, suite);
    ev.covered = clean.index.covers(ev.candidate.id, ctx.mutant);
    ev.clean_ok = true;
    for (const driver::TestResult& r : clean.result.results) {
        if (!r.passed()) ev.clean_ok = false;
    }
    if (!ev.clean_ok || (!already_armed && !ev.covered)) return ev;

    ++ctx.stats->candidates_executed;
    const oracle::GoldenRecord golden = oracle::GoldenRecord::from(clean.result);
    driver::SuiteResult mutated;
    {
        const driver::TestRunner runner(ctx.registry, ro);
        const mutation::MutantActivation activation(ctx.mutant);
        mutated = runner.run(suite);
    }
    const oracle::DifferentialKill diff = oracle::classify_suite_differential(
        golden, mutated, ctx.options.oracle, {}, ctx.options.obs);
    if (diff.with_model != oracle::KillReason::None) {
        ev.verified = true;
        ev.reason = diff.with_model;
        ev.model_only = diff.model_only();
    }
    return ev;
}

enum class PhaseEnd { Drained, Budget, Verified };

/// Bounded BFS over one phase graph.  Deterministic: birth nodes and
/// successors expand in graph insertion order, the budget is counted on
/// push, and no wall-clock or scheduling state is consulted.
PhaseEnd run_phase(const Ctx& ctx, const tfm::Graph& graph,
                   const std::vector<std::optional<tfm::NodeIndex>>& hops,
                   bool widened_phase, SearchOutcome* out) {
    const obs::SpanScope phase_span(
        ctx.options.obs.tracer, "kill-phase",
        widened_phase ? "widened" : "tfm");
    const driver::ModelBinding* model = ctx.options.runner.model;

    const auto record_kill = [&](const Eval& ev) {
        out->status = SearchStatus::Verified;
        out->killer = ev.candidate;
        out->reason = ev.reason;
        out->model_only = ev.model_only;
        out->widened = widened_phase;
    };

    std::deque<SearchState> queue;
    std::set<std::string> seen;  // unarmed states only: "node|model-key"
    const auto push = [&](SearchState state) -> bool {
        if (*ctx.budget_used >= ctx.options.budget_states) return false;
        ++*ctx.budget_used;
        ++ctx.stats->states_expanded;
        queue.push_back(std::move(state));
        return true;
    };

    for (const tfm::NodeIndex birth : graph.birth_nodes()) {
        SearchState state;
        state.node = birth;
        state.path = {birth};
        state.calls = node_group(graph.node(birth), ctx.tables, &state.incomplete);
        state.depth = 0;
        if (group_contains(graph.node(birth), ctx.mutated_ids)) {
            const Eval ev = evaluate(ctx, graph, hops, state, false);
            if (ev.verified) {
                record_kill(ev);
                return PhaseEnd::Verified;
            }
            state.armed = ev.covered && ev.clean_ok;
            if (state.armed) {
                ++ctx.stats->armed_states;
                *ctx.any_armed = true;
            }
        }
        if (!state.armed) {
            state.model_key = model_key_of(model, state.calls, state.depth);
            if (!seen.insert(std::to_string(state.node) + "|" + state.model_key)
                     .second) {
                continue;
            }
        }
        if (graph.is_death(birth)) continue;  // degenerate: nothing to expand
        if (!push(std::move(state))) return PhaseEnd::Budget;
    }

    while (!queue.empty()) {
        const SearchState current = std::move(queue.front());
        queue.pop_front();
        if (current.depth >= ctx.options.max_depth) continue;
        for (const tfm::NodeIndex next : graph.successors(current.node)) {
            SearchState child;
            child.node = next;
            child.path = current.path;
            child.path.push_back(next);
            child.calls = current.calls;
            child.incomplete = current.incomplete;
            const std::vector<driver::MethodCall> group =
                node_group(graph.node(next), ctx.tables, &child.incomplete);
            child.calls.insert(child.calls.end(), group.begin(), group.end());
            child.depth = current.depth + 1;
            child.armed = current.armed;

            const bool contains =
                group_contains(graph.node(next), ctx.mutated_ids);
            if (!child.armed && contains) {
                // Arming is decided by execution, not by name: the call
                // must actually consult the mutated site (a total
                // wrapper no-op, e.g. RemoveHead on empty, never arms).
                const Eval ev = evaluate(ctx, graph, hops, child, false);
                if (ev.verified) {
                    record_kill(ev);
                    return PhaseEnd::Verified;
                }
                child.armed = ev.covered && ev.clean_ok;
                if (child.armed) {
                    ++ctx.stats->armed_states;
                    *ctx.any_armed = true;
                }
            } else if (child.armed) {
                const Eval ev = evaluate(ctx, graph, hops, child, true);
                if (ev.verified) {
                    record_kill(ev);
                    return PhaseEnd::Verified;
                }
            }

            if (graph.is_death(next)) continue;  // candidate already judged
            if (!child.armed) {
                child.model_key = model_key_of(model, child.calls, child.depth);
                if (!seen.insert(std::to_string(child.node) + "|" +
                                 child.model_key)
                         .second) {
                    continue;
                }
            }
            if (!push(std::move(child))) return PhaseEnd::Budget;
        }
    }
    return PhaseEnd::Drained;
}

}  // namespace

ProductSearch::ProductSearch(const tspec::ComponentSpec& spec,
                             const reflect::Registry& registry,
                             const driver::CompletionRegistry* completions,
                             SearchOptions options)
    : spec_(spec),
      registry_(registry),
      completions_(completions),
      options_(std::move(options)),
      tfm_(spec.build_tfm()),
      widened_(specification_graph(spec)),
      tfm_hops_(tfm_.next_hop_to_death()),
      widened_hops_(widened_.next_hop_to_death()) {}

tfm::Graph ProductSearch::specification_graph(const tspec::ComponentSpec& spec) {
    tfm::Graph graph;
    std::vector<tfm::NodeIndex> births;
    std::vector<tfm::NodeIndex> workers;
    std::vector<tfm::NodeIndex> deaths;
    for (const tspec::MethodSpec& method : spec.methods) {
        if (method.is_constructor()) {
            births.push_back(
                graph.add_node({"b:" + method.id, true, {method.id}}));
        } else if (method.is_destructor()) {
            deaths.push_back(
                graph.add_node({"d:" + method.id, false, {method.id}}));
        } else {
            workers.push_back(
                graph.add_node({"w:" + method.id, false, {method.id}}));
        }
    }
    for (const tfm::NodeIndex b : births) {
        for (const tfm::NodeIndex w : workers) graph.add_edge(b, w);
        for (const tfm::NodeIndex d : deaths) graph.add_edge(b, d);
    }
    for (const tfm::NodeIndex w : workers) {
        for (const tfm::NodeIndex v : workers) graph.add_edge(w, v);
        for (const tfm::NodeIndex d : deaths) graph.add_edge(w, d);
    }
    return graph;
}

SearchOutcome ProductSearch::find_killer(const mutation::Mutant& mutant) const {
    const obs::SpanScope search_span(options_.obs.tracer, "kill-search",
                                     mutant.id());
    SearchOutcome out;
    out.status = SearchStatus::SiteUnreachable;

    // The mutated method, and in a lowered interclass system every role
    // method "role.Method" of that name: execution decides which arm.
    const std::string& name = mutant.method->method_name();
    std::set<std::string> mutated_ids;
    for (const tspec::MethodSpec& m : spec_.methods) {
        if (m.name == name || support::ends_with(m.name, "." + name)) {
            mutated_ids.insert(m.id);
        }
    }
    if (mutated_ids.empty()) return out;  // site outside the t-spec interface

    std::size_t budget_used = 0;
    std::size_t case_counter = 0;
    bool any_armed = false;
    bool budget_hit = false;
    const std::string mutant_id = mutant.id();

    for (std::size_t round = 0; round < options_.value_rounds; ++round) {
        ++out.stats.rounds;
        const CallTables tables = build_tables(spec_, completions_,
                                               options_.seed, mutant_id, round);
        const Ctx ctx{spec_,        registry_,     options_,
                      mutant,       tables,        mutated_ids,
                      &budget_used, &case_counter, &out.stats,
                      &any_armed};

        PhaseEnd end = run_phase(ctx, tfm_, tfm_hops_, false, &out);
        if (end == PhaseEnd::Verified) break;
        if (end == PhaseEnd::Budget) {
            budget_hit = true;
            break;
        }
        if (options_.widen) {
            end = run_phase(ctx, widened_, widened_hops_, true, &out);
            if (end == PhaseEnd::Verified) break;
            if (end == PhaseEnd::Budget) {
                budget_hit = true;
                break;
            }
        }
    }

    if (out.status != SearchStatus::Verified) {
        out.status = budget_hit    ? SearchStatus::BudgetExhausted
                     : any_armed   ? SearchStatus::SearchExhausted
                                   : SearchStatus::SiteUnreachable;
    }
    options_.obs.metrics.add(std::string("kill.search.") +
                             to_string(out.status));
    return out;
}

}  // namespace stc::kill

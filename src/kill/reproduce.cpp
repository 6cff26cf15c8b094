#include "stc/kill/reproduce.h"

#include <filesystem>
#include <optional>

#include "stc/campaign/thread_pool.h"
#include "stc/campaign/work_list.h"
#include "stc/mutation/controller.h"
#include "stc/support/error.h"

namespace stc::kill {

namespace {

/// One case as the rule runs it: divergence promoted, the class's model
/// attached only when `with_model`, `mutant` active unless null.
fuzz::CaseRunner rule_run(const KillContext& context,
                          driver::RunnerOptions ro,
                          const mutation::Mutant* mutant, bool with_model) {
    if (!with_model) ro.model = nullptr;
    ro.promote_divergence = true;
    ro.log_path.clear();
    ro.observer = nullptr;
    return [runner = driver::TestRunner(*context.registry, ro),
            binding = &context.registry->at(context.spec->class_name),
            mutant](const driver::TestCase& tc) {
        std::optional<mutation::MutantActivation> active;
        if (mutant != nullptr) active.emplace(*mutant);
        return runner.run_case(*binding, tc);
    };
}

}  // namespace

oracle::KillReason entry_reason(const fuzz::CorpusEntry& entry) {
    if (entry.kill_reason.empty()) return oracle::KillReason::None;
    const auto reason = oracle::kill_reason_from_string(entry.kill_reason);
    if (!reason || *reason == oracle::KillReason::None) {
        throw Error("corpus entry names an unknown kill reason '" +
                    entry.kill_reason + "'");
    }
    return *reason;
}

fuzz::Predicate replay_rule(const KillContext& context,
                            const driver::RunnerOptions& runner,
                            const mutation::Mutant* mutant,
                            const fuzz::CorpusEntry& entry) {
    const oracle::KillReason reason = entry_reason(entry);
    if (reason == oracle::KillReason::None) {
        return fuzz::shows_verdict(
            rule_run(context, runner, mutant,
                     entry.verdict == driver::Verdict::ModelDivergence),
            entry.verdict);
    }
    if (mutant == nullptr) {
        throw Error("kill entry (reason " + entry.kill_reason +
                    ") replayed without its mutant");
    }
    const bool with_model = reason == oracle::KillReason::ModelDivergence;
    return [clean = rule_run(context, runner, nullptr, with_model),
            mutated = rule_run(context, runner, mutant, with_model),
            reason](const driver::TestCase& tc) {
        const driver::TestResult base = clean(tc);
        return base.passed() &&
               oracle::classify({base.case_id, base.verdict, base.report,
                                 base.message, base.model_divergence},
                                mutated(tc)) == reason;
    };
}

Reproduction reproduce(const KillContext& context, const KillOptions& options,
                       const tfm::Graph& graph, const mutation::Mutant* mutant,
                       fuzz::CorpusEntry entry, std::uint64_t entry_seed) {
    const oracle::KillReason reason = entry_reason(entry);
    const driver::RunnerOptions& runner = options.search.runner;
    const fuzz::Predicate replays = replay_rule(context, runner, mutant, entry);
    fuzz::ShrinkOptions shrink;
    shrink.max_steps = options.max_shrink_steps;
    shrink.obs = options.obs;
    Reproduction out;
    out.shrink =
        fuzz::shrink_case(*context.spec, graph, entry.reproducer(), replays, shrink);
    entry.suite.cases = {out.shrink.minimized};
    if (reason != oracle::KillReason::None) {
        const driver::TestResult observed =
            rule_run(context, runner, mutant,
                     reason == oracle::KillReason::ModelDivergence)(
                out.shrink.minimized);
        entry.verdict = observed.verdict;
        entry.failed_method = observed.failed_method;
    }
    if (!options.corpus_dir.empty()) {
        out.path = fuzz::persist_entry(options.corpus_dir, entry,
                                       context.completions, replays, entry_seed);
    }
    out.entry = std::move(entry);
    return out;
}

std::size_t shrink_campaign_kills(const KillContext& context,
                                  const driver::TestSuite& suite,
                                  const campaign::CampaignResult& result,
                                  const KillOptions& options) {
    const obs::SpanScope pass_span(options.obs.tracer, "phase", "shrink-corpus");
    const std::vector<mutation::Mutant>& mutants = *context.mutants;
    const tfm::Graph graph = context.spec->build_tfm();
    const driver::TestRunner runner(*context.registry, options.search.runner);
    const reflect::ClassBinding& binding = context.registry->at(suite.class_name);
    const std::vector<campaign::WorkItem> work = campaign::build_work_list(
        options.seed, result.fingerprint, suite, mutants);

    // Per killed item: the first case of the suite that kills it, as the
    // campaign classified it, reproduced.  A pure function of the item,
    // so --jobs cannot perturb the corpus.
    std::vector<Reproduction> done(mutants.size());
    campaign::WorkStealingPool::for_each_index(
        mutants.size(), options.jobs, [&](std::size_t item) {
            if (result.run.outcomes[item].fate != mutation::MutantFate::Killed) return;
            const mutation::Mutant& mutant = mutants[item];
            for (std::size_t i = 0; i < suite.cases.size(); ++i) {
                const driver::TestCase& tc = suite.cases[i];
                const oracle::GoldenEntry* golden = result.run.golden.find(i, tc.id);
                if (golden == nullptr) continue;
                driver::TestResult observed;
                {
                    const mutation::MutantActivation activation(mutant);
                    observed = runner.run_case(binding, tc);
                }
                const oracle::KillReason reason = oracle::classify(*golden, observed);
                if (reason == oracle::KillReason::None) continue;
                fuzz::CorpusEntry entry;
                entry.suite.class_name = suite.class_name;
                entry.suite.model_nodes = suite.model_nodes;
                entry.suite.model_links = suite.model_links;
                entry.suite.cases.push_back(tc);
                entry.mutant_id = mutant.id();
                entry.kill_reason = oracle::to_string(reason);
                done[item] = reproduce(context, options, graph, &mutant,
                                       std::move(entry), work[item].item_seed);
                return;
            }
        });

    // Telemetry in item order, after the fact: the stream never depends
    // on which worker finished first.
    obs::JsonlSink telemetry = options.telemetry;
    std::size_t persisted = 0;
    for (std::size_t item = 0; item < done.size(); ++item) {
        const Reproduction& r = done[item];
        if (r.path.empty()) continue;
        ++persisted;
        telemetry.emit(obs::JsonObject()
                           .set("event", "item-shrunk")
                           .set("item", static_cast<std::uint64_t>(item))
                           .set("mutant", r.entry.mutant_id)
                           .set("reason", r.entry.kill_reason)
                           .set("calls", static_cast<std::uint64_t>(
                                             r.shrink.minimized.calls.size()))
                           .set("corpus", std::filesystem::path(r.path)
                                              .filename()
                                              .string()));
    }
    return persisted;
}

}  // namespace stc::kill

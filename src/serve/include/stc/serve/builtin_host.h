// The built-in-component host of the campaign service: everything both
// ends of a `concat dispatch` need to agree on, derived from one small
// handshake config.
//
// The Hello payload carries only the campaign *inputs* (component name,
// seed, generator knobs, probe/model switches).  Coordinator and worker
// each reconstruct the full campaign — spec, suite, mutants, golden
// baselines, fingerprint — from those inputs independently; the
// fingerprint cross-check at handshake then proves they reconstructed
// the same campaign (same code, same config) before any work is
// shipped.  Item results are pure functions of that shared state plus
// the item id, which is why a dispatched campaign's fates are
// byte-identical to a local `concat campaign` run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "stc/campaign/executor.h"
#include "stc/campaign/scheduler.h"
#include "stc/campaign/work_list.h"
#include "stc/core/self_testable.h"
#include "stc/driver/generator.h"
#include "stc/mutation/engine.h"
#include "stc/mutation/prune.h"
#include "stc/obs/json.h"
#include "stc/serve/dispatch.h"
#include "stc/serve/worker.h"

namespace stc::serve {

/// A freshly constructed component under test, plus whatever arenas its
/// completion closures point into.  `keepalive` owns the pools; it must
/// outlive `component` (declaration order guarantees destruction order).
struct BuiltinComponent {
    std::shared_ptr<void> keepalive;
    std::optional<core::SelfTestableComponent> component;
    /// Completions the component was configured with (shrink replay
    /// needs them); points into `keepalive`, may be null.
    const driver::CompletionRegistry* completions = nullptr;
};

/// One campaign target name both ends of a dispatch can reconstruct
/// from: how to make the component under test (with completions
/// attached) and its mutant population.  The mutant population is
/// independent of the component under test on purpose — an assembly
/// target evaluates *member-class* mutants (e.g. Wallet's) through the
/// assembly's public interface.
struct BuiltinTarget {
    std::function<BuiltinComponent()> make_component;
    std::function<std::vector<mutation::Mutant>()> mutants;
    /// Product of an assembly (stc::assembly): `concat campaign` and
    /// `concat dispatch` require --assembly for these targets so a
    /// caller cannot confuse single-class and composed campaigns.
    bool assembly = false;
};

/// Register (or replace) a campaign target.  The mfc components
/// ("coblist", "sortable") are pre-registered; examples add "wallet"
/// and "shop" via stc::examples::register_example_targets().
void register_builtin_target(const std::string& name, BuiltinTarget target);

/// Look up a target; nullptr when unknown.
[[nodiscard]] const BuiltinTarget* find_builtin_target(const std::string& name);

/// Registered target names, sorted (for error messages and --help).
[[nodiscard]] std::vector<std::string> builtin_target_names();

/// The campaign inputs that travel in a Hello payload.
struct BuiltinCampaignConfig {
    std::string component;  ///< a registered target name, e.g. "coblist"
    driver::GeneratorOptions generator;
    bool probe = false;  ///< amplified probe suite for equivalence
    bool model = false;  ///< lockstep reference-model oracle
    /// Coverage-signature pruning + prefix memoization (the campaign
    /// fast tier).  Part of the fingerprint, so both ends must agree —
    /// the handshake cross-check enforces it.
    bool prune = true;
};

/// A builtin campaign's inputs, derived from its config the one way
/// every end of it does — `concat campaign`/`kill`/`dispatch` and each
/// serve worker — so no two can drift apart: the component, its suite,
/// the probe suite (a decorrelated seed and one extra case per
/// transaction), the mutants, and the campaign options (seed, prune,
/// lockstep model) that enter the fingerprint.
struct BuiltinInputs {
    BuiltinComponent holder;
    driver::TestSuite suite;
    std::optional<driver::TestSuite> probe;
    std::vector<mutation::Mutant> mutants;
    campaign::CampaignOptions options;

    [[nodiscard]] const driver::TestSuite* probe_suite() const noexcept {
        return probe ? &*probe : nullptr;
    }
};

/// Build the inputs; std::nullopt with `*error` set on an unknown
/// component or a model request for a class without a reference model.
[[nodiscard]] std::optional<BuiltinInputs> make_builtin_inputs(
    const BuiltinCampaignConfig& config, std::string* error);

/// Render the Hello payload (docs/FORMATS.md §10).  `fingerprint` is
/// the sender's own campaign fingerprint; the receiver re-derives and
/// cross-checks it.
[[nodiscard]] obs::JsonObject make_hello(const BuiltinCampaignConfig& config,
                                         const std::string& fingerprint);

/// Parse a Hello payload; std::nullopt with `*error` set when a field
/// make_hello writes is missing or mistyped, or the criterion is unknown.
[[nodiscard]] std::optional<BuiltinCampaignConfig> parse_hello(
    const obs::JsonObject& hello, std::string* error);

/// One fully reconstructed builtin campaign: component, suite, mutant
/// population, fingerprint, work list, and the campaign::
/// ExecutionContext (golden baselines, prune plan) its items evaluate
/// in.  A serve worker opens one per session from the Hello config.
class BuiltinCampaign {
public:
    ~BuiltinCampaign();
    BuiltinCampaign(const BuiltinCampaign&) = delete;
    BuiltinCampaign& operator=(const BuiltinCampaign&) = delete;

    /// Build the campaign; nullptr with `*error` set on an unknown
    /// component or a model request without a registered model.  `obs`
    /// is wired into the mutation engine and runners, so evaluation
    /// spans/metrics land in the caller's instruments (a worker
    /// session's streaming tracer, or the process's own --trace-out).
    [[nodiscard]] static std::unique_ptr<BuiltinCampaign> open(
        const BuiltinCampaignConfig& config, std::string* error,
        const obs::Context& obs = {});

    [[nodiscard]] const driver::TestSuite& suite() const noexcept;
    [[nodiscard]] const std::string& fingerprint() const noexcept;
    [[nodiscard]] const std::vector<campaign::WorkItem>& items() const noexcept;
    [[nodiscard]] bool baseline_clean() const noexcept;
    /// True when the fast tier is engaged for this campaign.
    [[nodiscard]] bool pruned() const noexcept;

    /// Evaluate one mutant through the ExecutionContext — the same call
    /// the local executors make, so fates match them exactly.  Throws
    /// stc::Error on an unknown mutant id.  `stats`, when given,
    /// receives the pruned evaluator's pair counters.
    [[nodiscard]] mutation::MutantOutcome evaluate(
        const std::string& mutant_id,
        mutation::PruneStats* stats = nullptr) const;

private:
    BuiltinCampaign();
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/// The worker-side SessionFactory over the built-in components: parses
/// the Hello, opens the campaign, rejects on config errors or a
/// fingerprint mismatch, then serves evaluate() per Work item.
[[nodiscard]] SessionFactory builtin_session_factory();

/// The campaign executor of `concat dispatch`: ships the pending items
/// to `concat serve` daemons through a Coordinator and decodes each
/// Result with the campaign outcome codec.  The Hello is built from
/// `config` plus the scheduler's fingerprint, which every HelloAck must
/// echo.  Not local(): the coordinator prepares only the golden run.
class RemoteExecutor final : public campaign::Executor {
public:
    /// `options.hello` and `options.expected_fingerprint` are filled in
    /// per run; `options.telemetry` is the scheduler's sink.  `observe`,
    /// when set, sees every campaign telemetry event (--progress).
    RemoteExecutor(BuiltinCampaignConfig config, DispatchOptions options,
                   std::function<void(const obs::JsonObject&)> observe = {});

    [[nodiscard]] bool local() const override { return false; }
    [[nodiscard]] std::size_t workers(std::size_t) const override {
        return options_.workers.size();
    }
    void observe(const obs::JsonObject& event) override;
    campaign::ExecutorStats run(const Batch& batch) override;

    /// The last run's fleet statistics (all zero until a run ships items).
    [[nodiscard]] const DispatchStats& stats() const noexcept { return stats_; }

private:
    BuiltinCampaignConfig config_;
    DispatchOptions options_;
    std::function<void(const obs::JsonObject&)> observe_;
    DispatchStats stats_;
};

}  // namespace stc::serve

// Oracles — deciding whether an observed run differs from the expected
// behaviour.
//
// The paper uses assertions as a *partial* oracle, complemented by
// manually derived oracles and, for the mutation experiments (§4), a
// comparison of program outputs against the original program's outputs
// "validated by hand before experiments began".  We model the latter as
// a GoldenRecord captured from a baseline run; kill classification then
// mirrors the paper's three conditions:
//   (i)   the program crashed while running the test cases,
//   (ii)  an exception was raised due to assertion violation (and the
//         original program did not raise one), or
//   (iii) the output differs from the original program's output.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "stc/driver/runner.h"
#include "stc/obs/context.h"

namespace stc::oracle {

/// Expected behaviour of one test case, captured from the original
/// (unmutated) component.
struct GoldenEntry {
    std::string case_id;
    driver::Verdict verdict = driver::Verdict::Pass;
    std::string report;   ///< Reporter output (observable object state)
    std::string message;  ///< failure message, if the baseline itself failed
    /// Reference-model divergence recorded by the baseline run, when a
    /// lockstep model was attached (normally empty: the unmutated
    /// component conforms).  Lets the differential channel require a
    /// divergence the original did NOT show, mirroring condition (ii).
    std::string model_divergence;
};

/// Baseline behaviour of a whole suite.
class GoldenRecord {
public:
    GoldenRecord() = default;

    /// Capture from a baseline SuiteResult.
    static GoldenRecord from(const driver::SuiteResult& baseline);

    [[nodiscard]] const GoldenEntry* find(const std::string& case_id) const;
    /// Index-aligned lookup: the entry at `index` when its id matches
    /// (the record was captured from the same suite, so the i-th result
    /// belongs to the i-th entry), else the linear find(case_id).
    [[nodiscard]] const GoldenEntry* find(std::size_t index,
                                          const std::string& case_id) const;
    [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
    [[nodiscard]] const std::vector<GoldenEntry>& entries() const noexcept {
        return entries_;
    }

    /// True when the baseline is clean (every case passed) — the paper's
    /// precondition for the mutation experiments.
    [[nodiscard]] bool all_passed() const noexcept;

private:
    std::vector<GoldenEntry> entries_;
};

/// Why a difference was detected (also: why a mutant was killed).
enum class KillReason {
    None,
    Crash,
    Assertion,
    IllegalQuiescence,  ///< ioco: an output obligation was silently absorbed
                        ///< (assembly-level quiescence BIT, stc::assembly)
    ModelDivergence,    ///< lockstep reference model disagreed (stc::model)
    OutputDiff,
    ManualOracle,
};

/// All kill reasons, for exhaustive iteration (round-trip tests,
/// reporters that must render zero-count rows rather than silently
/// dropping a kind).
inline constexpr KillReason kAllKillReasons[] = {
    KillReason::None,          KillReason::Crash,
    KillReason::Assertion,     KillReason::IllegalQuiescence,
    KillReason::ModelDivergence, KillReason::OutputDiff,
    KillReason::ManualOracle,
};

[[nodiscard]] const char* to_string(KillReason reason) noexcept;

/// Inverse of to_string; std::nullopt for unknown text (campaign
/// result-store rehydration).
[[nodiscard]] std::optional<KillReason> kill_reason_from_string(
    std::string_view text) noexcept;

/// Which detection channels are active.  The ablation bench toggles
/// these to reproduce the paper's observation that assertions alone are
/// not an effective oracle (they contributed 59 of 652 kills).
struct OracleConfig {
    bool use_crashes = true;
    bool use_assertions = true;
    /// ioco quiescence channel: an observed Verdict::IllegalQuiescence
    /// the baseline did not show kills with KillReason::IllegalQuiescence.
    /// Vacuous outside assembly-level testing (single-class components
    /// never raise the quiescence BIT).
    bool use_quiescence = true;
    bool use_output_diff = true;
    /// Differential channel: a run whose TestResult::model_divergence is
    /// non-empty while the golden baseline's is empty kills with
    /// KillReason::ModelDivergence.  On by default but vacuous unless a
    /// lockstep model was attached to the runner (without one the
    /// divergence strings are always empty).  Toggled off for the
    /// "without the model" leg of the oracle-strength comparison.
    bool use_model = true;
};

/// A manually derived oracle (paper §3.3: "manually derived oracles are
/// also used in complement"): inspects the observed report and returns
/// false when the state is wrong even though no assertion fired.
using ManualPredicate =
    std::function<bool(const std::string& case_id, const std::string& report)>;

/// Compare one observed result against its golden entry.
[[nodiscard]] KillReason classify(const GoldenEntry& golden,
                                  const driver::TestResult& observed,
                                  const OracleConfig& config = {},
                                  const ManualPredicate& manual = {});

/// One observed run, classified twice: once with the model channel and
/// once without it, over the SAME SuiteResult (classification is a pure
/// function of the observation, so no second execution is needed).
/// `model_only` is the oracle-strength signal of the paper-style
/// Table 2 comparison: the run was killed WITH the reference model but
/// would have survived the assertion/crash/output oracle alone.
struct DifferentialKill {
    KillReason with_model = KillReason::None;
    KillReason without_model = KillReason::None;

    [[nodiscard]] bool model_only() const noexcept {
        return with_model != KillReason::None &&
               without_model == KillReason::None;
    }
};

/// Streaming suite classification — the one place kill-reason
/// precedence (Crash > Assertion > IllegalQuiescence > ModelDivergence >
/// OutputDiff > ManualOracle) is applied.  Feed (golden entry, observed
/// result) pairs one case at a time; add() keeps the strongest reason
/// per leg and returns true once the verdict is decided: every tracked
/// leg holds Crash, which nothing outranks, so no further case can
/// change it.  A single-leg fold classifies with `config` as given and
/// reports in with_model; a differential fold also tracks the leg with
/// the model channel forced off.  `manual`, when non-null, must outlive
/// the fold.
class KillFold {
public:
    explicit KillFold(const OracleConfig& config = {},
                      const ManualPredicate* manual = nullptr,
                      bool differential = false) noexcept;

    /// Fold one case; true when the verdict is decided.
    bool add(const GoldenEntry& golden, const driver::TestResult& observed);
    [[nodiscard]] bool decided() const noexcept;
    [[nodiscard]] const DifferentialKill& kill() const noexcept { return kill_; }

    /// Record oracle.suite_compares and oracle.kill.<reason> (plus
    /// oracle.kill.model_only for a differential fold) — one suite
    /// classification's worth of counters.
    void meter(const obs::Context& obs) const;

private:
    OracleConfig config_;
    const ManualPredicate* manual_ = nullptr;
    bool differential_ = false;
    DifferentialKill kill_;
};

/// Compare a whole suite run; returns the first (strongest) kill reason
/// across cases, in order Crash > Assertion > IllegalQuiescence >
/// ModelDivergence > OutputDiff > ManualOracle.
/// The observability context, when enabled, records an "oracle-compare"
/// span plus oracle.suite_compares / oracle.kill.<reason> counters.
[[nodiscard]] KillReason classify_suite(const GoldenRecord& golden,
                                        const driver::SuiteResult& observed,
                                        const OracleConfig& config = {},
                                        const ManualPredicate& manual = {},
                                        const obs::Context& obs = {});

/// Classify `observed` with `config` as given (model channel per
/// config.use_model) and again with use_model forced off.
[[nodiscard]] DifferentialKill classify_suite_differential(
    const GoldenRecord& golden, const driver::SuiteResult& observed,
    const OracleConfig& config = {}, const ManualPredicate& manual = {},
    const obs::Context& obs = {});

}  // namespace stc::oracle

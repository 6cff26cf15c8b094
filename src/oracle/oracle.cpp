#include "stc/oracle/oracle.h"

namespace stc::oracle {

GoldenRecord GoldenRecord::from(const driver::SuiteResult& baseline) {
    GoldenRecord out;
    out.entries_.reserve(baseline.results.size());
    for (const auto& r : baseline.results) {
        out.entries_.push_back(GoldenEntry{r.case_id, r.verdict, r.report,
                                           r.message, r.model_divergence});
    }
    return out;
}

const GoldenEntry* GoldenRecord::find(const std::string& case_id) const {
    for (const auto& e : entries_) {
        if (e.case_id == case_id) return &e;
    }
    return nullptr;
}

const GoldenEntry* GoldenRecord::find(std::size_t index,
                                      const std::string& case_id) const {
    if (index < entries_.size() && entries_[index].case_id == case_id) {
        return &entries_[index];
    }
    return find(case_id);
}

bool GoldenRecord::all_passed() const noexcept {
    for (const auto& e : entries_) {
        if (e.verdict != driver::Verdict::Pass) return false;
    }
    return true;
}

const char* to_string(KillReason reason) noexcept {
    switch (reason) {
        case KillReason::None: return "alive";
        case KillReason::Crash: return "crash";
        case KillReason::Assertion: return "assertion";
        case KillReason::IllegalQuiescence: return "illegal-quiescence";
        case KillReason::ModelDivergence: return "model-divergence";
        case KillReason::OutputDiff: return "output-diff";
        case KillReason::ManualOracle: return "manual-oracle";
    }
    return "?";
}

std::optional<KillReason> kill_reason_from_string(std::string_view text) noexcept {
    for (const KillReason reason : kAllKillReasons) {
        if (text == to_string(reason)) return reason;
    }
    return std::nullopt;
}

KillReason classify(const GoldenEntry& golden, const driver::TestResult& observed,
                    const OracleConfig& config, const ManualPredicate& manual) {
    using driver::Verdict;

    // (i) the program crashed while running the test cases.
    if (config.use_crashes && observed.verdict == Verdict::Crash &&
        golden.verdict != Verdict::Crash) {
        return KillReason::Crash;
    }

    // (ii) an assertion violation that the original program did not raise.
    if (config.use_assertions && observed.verdict == Verdict::AssertionViolation &&
        golden.verdict != Verdict::AssertionViolation) {
        return KillReason::Assertion;
    }

    // (ii'') ioco illegal quiescence: an output obligation was silently
    // absorbed while the original emitted.  Like an assertion it fires
    // inside the (assembly-level) built-in test, but the signal is the
    // *absence* of an output, so it ranks just below a violated contract.
    if (config.use_quiescence &&
        observed.verdict == Verdict::IllegalQuiescence &&
        golden.verdict != Verdict::IllegalQuiescence) {
        return KillReason::IllegalQuiescence;
    }

    // (ii') the run diverged from the lockstep reference model while the
    // original conformed — the differential channel (stc::model).
    if (config.use_model && !observed.model_divergence.empty() &&
        golden.model_divergence.empty()) {
        return KillReason::ModelDivergence;
    }

    // (iii) the output of the finished program differs from the original's.
    if (config.use_output_diff) {
        if (observed.verdict != golden.verdict || observed.report != golden.report) {
            return KillReason::OutputDiff;
        }
    }

    // Complementary manually derived oracle over the observable state.
    if (manual && observed.verdict == Verdict::Pass &&
        !manual(observed.case_id, observed.report)) {
        return KillReason::ManualOracle;
    }

    return KillReason::None;
}

namespace {

/// Kill-reason precedence: Crash > Assertion > IllegalQuiescence >
/// ModelDivergence > OutputDiff > ManualOracle.  The differential
/// channel sits between the paper's conditions (ii) and (iii): stronger
/// than a bare output difference (it pinpoints the first wrong call),
/// weaker than an embedded assertion (which fires inside the component
/// itself).  Illegal quiescence sits directly below Assertion: it also
/// fires inside a built-in test, but detects a *missing* output rather
/// than a violated predicate.
int strength(KillReason r) noexcept {
    switch (r) {
        case KillReason::Crash: return 6;
        case KillReason::Assertion: return 5;
        case KillReason::IllegalQuiescence: return 4;
        case KillReason::ModelDivergence: return 3;
        case KillReason::OutputDiff: return 2;
        case KillReason::ManualOracle: return 1;
        case KillReason::None: return 0;
    }
    return 0;
}

}  // namespace

KillFold::KillFold(const OracleConfig& config, const ManualPredicate* manual,
                   bool differential) noexcept
    : config_(config), manual_(manual), differential_(differential) {}

bool KillFold::add(const GoldenEntry& golden, const driver::TestResult& observed) {
    static const ManualPredicate kNoManual;
    const ManualPredicate& manual = manual_ != nullptr ? *manual_ : kNoManual;
    const KillReason with = classify(golden, observed, config_, manual);
    if (strength(with) > strength(kill_.with_model)) kill_.with_model = with;
    if (differential_) {
        // classify() consults the model channel after crash, assertion
        // and quiescence and before the output diff, so the leg without
        // it can only differ when the model channel is what fired.
        KillReason sans = with;
        if (with == KillReason::ModelDivergence) {
            OracleConfig without = config_;
            without.use_model = false;
            sans = classify(golden, observed, without, manual);
        }
        if (strength(sans) > strength(kill_.without_model)) {
            kill_.without_model = sans;
        }
    }
    return decided();
}

bool KillFold::decided() const noexcept {
    return kill_.with_model == KillReason::Crash &&
           (!differential_ || kill_.without_model == KillReason::Crash);
}

void KillFold::meter(const obs::Context& obs) const {
    if (!obs.metrics.enabled()) return;
    obs.metrics.add("oracle.suite_compares");
    obs.metrics.add(std::string("oracle.kill.") + to_string(kill_.with_model));
    if (differential_ && kill_.model_only()) {
        obs.metrics.add("oracle.kill.model_only");
    }
}

namespace {

/// Fold a whole SuiteResult, each result against its index-aligned
/// golden entry, stopping as soon as the verdict is decided.
void fold_suite(KillFold& fold, const GoldenRecord& golden,
                const driver::SuiteResult& observed) {
    for (std::size_t i = 0; i < observed.results.size(); ++i) {
        const driver::TestResult& result = observed.results[i];
        const GoldenEntry* entry = golden.find(i, result.case_id);
        if (entry == nullptr) continue;  // new case: nothing to compare against
        if (fold.add(*entry, result)) break;
    }
}

}  // namespace

KillReason classify_suite(const GoldenRecord& golden,
                          const driver::SuiteResult& observed,
                          const OracleConfig& config, const ManualPredicate& manual,
                          const obs::Context& obs) {
    const obs::SpanScope span(obs.tracer, "oracle-compare", "classify-suite");
    KillFold fold(config, &manual);
    fold_suite(fold, golden, observed);
    fold.meter(obs);
    return fold.kill().with_model;
}

DifferentialKill classify_suite_differential(const GoldenRecord& golden,
                                             const driver::SuiteResult& observed,
                                             const OracleConfig& config,
                                             const ManualPredicate& manual,
                                             const obs::Context& obs) {
    const obs::SpanScope span(obs.tracer, "oracle-compare",
                              "classify-suite-differential");
    KillFold fold(config, &manual, /*differential=*/true);
    fold_suite(fold, golden, observed);
    fold.meter(obs);
    return fold.kill();
}

}  // namespace stc::oracle

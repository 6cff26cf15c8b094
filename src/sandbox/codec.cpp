#include "stc/sandbox/codec.h"

#include <utility>

#include "stc/campaign/outcome_codec.h"
#include "stc/obs/json.h"

namespace stc::sandbox {

std::string encode_outcome(const mutation::MutantOutcome& outcome,
                           const mutation::PruneStats* stats) {
    obs::JsonObject object;
    campaign::encode_outcome(object, outcome);
    if (stats != nullptr) campaign::encode_prune_stats(object, *stats);
    return object.to_line();
}

std::optional<mutation::MutantOutcome> decode_outcome(
    std::string_view payload) {
    const auto object = obs::JsonObject::parse(payload);
    return object ? campaign::decode_outcome(*object) : std::nullopt;
}

mutation::MutantOutcome outcome_from_termination(std::string kind) {
    mutation::MutantOutcome outcome;
    outcome.fate = mutation::MutantFate::Killed;
    outcome.reason = oracle::KillReason::Crash;
    outcome.hit_by_suite = true;
    outcome.sandbox = std::move(kind);
    return outcome;
}

std::string encode_result(const driver::TestResult& result) {
    obs::JsonObject object;
    object.set("case", result.case_id);
    object.set("verdict", driver::to_string(result.verdict));
    object.set("method", result.failed_method);
    object.set("message", result.message);
    object.set("report", result.report);
    object.set("log", result.log);
    if (!result.model_divergence.empty()) {
        object.set("model_divergence", result.model_divergence);
    }
    if (result.assertion_kind) {
        object.set("assertion",
                   static_cast<std::int64_t>(*result.assertion_kind));
    }
    return object.to_line();
}

std::optional<driver::TestResult> decode_result(std::string_view payload) {
    const auto object = obs::JsonObject::parse(payload);
    if (!object) return std::nullopt;
    const auto case_id = object->get_string("case");
    const auto verdict_text = object->get_string("verdict");
    const auto method = object->get_string("method");
    const auto message = object->get_string("message");
    const auto report = object->get_string("report");
    const auto log = object->get_string("log");
    if (!case_id || !verdict_text || !method || !message || !report || !log) {
        return std::nullopt;
    }
    const auto verdict = driver::verdict_from_string(*verdict_text);
    if (!verdict) return std::nullopt;
    driver::TestResult result;
    result.case_id = *case_id;
    result.verdict = *verdict;
    result.failed_method = *method;
    result.message = *message;
    result.report = *report;
    result.log = *log;
    result.model_divergence = object->get_string("model_divergence").value_or("");
    if (const auto kind = object->get_int("assertion");
        kind && *kind >= 0 && *kind <= 2) {
        result.assertion_kind = static_cast<bit::AssertionKind>(*kind);
    }
    return result;
}

}  // namespace stc::sandbox

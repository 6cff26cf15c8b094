#include "stc/obs/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "stc/obs/json.h"
#include "stc/support/error.h"
#include "stc/support/strings.h"
#include "stc/support/table.h"

namespace stc::obs {

namespace {

std::string format_ms(double ms) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.3f", ms);
    return buffer;
}

}  // namespace

TelemetryStats TelemetryStats::from_stream(std::istream& in) {
    TelemetryStats out;
    out.absorb_stream(in);
    return out;
}

void TelemetryStats::absorb_stream(std::istream& in) {
    ++streams;
    std::string line;
    while (std::getline(in, line)) absorb_line(line);
    sort_items();
}

void TelemetryStats::absorb_line(std::string_view line) {
    if (support::trim(std::string(line)).empty()) return;
    ++lines;
    const auto event = JsonObject::parse(line);
    if (!event || !event->get_string("event")) {
        ++malformed_lines;  // e.g. the torn tail of a killed run
        return;
    }
    absorb_event(*event);
}

void TelemetryStats::sort_items() {
    std::sort(items.begin(), items.end(),
              [](const Item& a, const Item& b) { return a.index < b.index; });
    by_index_.clear();
    for (std::size_t slot = 0; slot < items.size(); ++slot) {
        by_index_[items[slot].index] = slot;
    }
}

void TelemetryStats::absorb_event(const JsonObject& event) {
    TelemetryStats& out = *this;

    // Items deduplicate by index; later generations (and later input
    // streams) overwrite earlier, so coordinator + worker files agree
    // on one row per item.
    auto upsert = [&](bool finished) {
        const auto index = event.get_uint("item");
        if (!index) return;
        Item item;
        item.index = *index;
        item.mutant = event.get_string("mutant").value_or("?");
        item.fate = event.get_string("fate").value_or("?");
        item.reason = event.get_string("reason").value_or("?");
        item.sandbox = event.get_string("sandbox").value_or("");
        item.model_only = event.get_bool("model_only").value_or(false);
        if (finished) {
            item.wall_ms = event.get_double("wall_ms").value_or(0.0);
            item.worker = event.get_uint("worker").value_or(0);
            item.has_timing = true;
        }
        const auto [it, inserted] = by_index_.emplace(*index, out.items.size());
        if (inserted) {
            out.items.push_back(std::move(item));
        } else {
            out.items[it->second] = std::move(item);
        }
    };

    {
        const std::string kind = *event.get_string("event");
        if (kind == "campaign-start") {
            ++out.generations;
            out.campaign = event.get_string("campaign").value_or("");
            out.class_name = event.get_string("class").value_or("");
            out.seed = event.get_uint("seed").value_or(0);
            out.jobs = event.get_uint("jobs").value_or(0);
            out.declared_mutants = event.get_uint("mutants").value_or(0);
            out.cases = event.get_uint("cases").value_or(0);
            out.model = event.get_bool("model").value_or(false);
            // A new generation re-declares its kill-reason rows, and its
            // shrink post-pass re-persists every kill, resumed ones too.
            out.declared_kill_reasons.clear();
            out.shrunk_items = 0;
        } else if (kind == "kill-reason") {
            if (const auto name = event.get_string("reason")) {
                out.declared_kill_reasons.push_back(*name);
            }
        } else if (kind == "item-start") {
            ++out.starts;
        } else if (kind == "item-finish") {
            ++out.finishes;
            upsert(true);
        } else if (kind == "item-shrunk") {
            ++out.shrunk_items;
        } else if (kind == "item-resumed") {
            ++out.resumes;
            upsert(false);
        } else if (kind == "campaign-end") {
            out.have_summary = true;
            out.killed = event.get_uint("killed").value_or(0);
            out.equivalent = event.get_uint("equivalent").value_or(0);
            out.not_covered = event.get_uint("not_covered").value_or(0);
            out.executed = event.get_uint("executed").value_or(0);
            out.workers = event.get_uint("workers").value_or(0);
            out.steals = event.get_uint("steals").value_or(0);
            out.score = event.get_double("score").value_or(0.0);
            out.wall_ms = event.get_double("wall_ms").value_or(0.0);
        } else if (kind == "fuzz-start") {
            ++out.fuzz_runs;
            out.fuzz_class = event.get_string("class").value_or("");
            out.fuzz_seed = event.get_uint("seed").value_or(0);
            // A new generation restarts the finding/verdict tallies.
            out.fuzz_findings.clear();
            out.fuzz_verdicts.clear();
            out.have_fuzz_summary = false;
        } else if (kind == "fuzz-finding") {
            FuzzFinding finding;
            finding.key = event.get_string("key").value_or("?");
            finding.verdict = event.get_string("verdict").value_or("?");
            finding.iteration = event.get_uint("iteration").value_or(0);
            finding.shrink_steps = event.get_uint("shrink_steps").value_or(0);
            finding.calls = event.get_uint("calls").value_or(0);
            out.fuzz_findings.push_back(std::move(finding));
        } else if (kind == "fuzz-verdict") {
            const auto name = event.get_string("verdict");
            if (name) {
                out.fuzz_verdicts[*name] = event.get_uint("count").value_or(0);
            }
        } else if (kind == "fuzz-end") {
            out.have_fuzz_summary = true;
            out.fuzz_iterations = event.get_uint("iterations").value_or(0);
            out.fuzz_executions = event.get_uint("executions").value_or(0);
            out.fuzz_interesting = event.get_uint("interesting").value_or(0);
            out.fuzz_population = event.get_uint("population").value_or(0);
        } else if (kind == "kill-run-start") {
            ++out.kill_runs;
            out.kill_class = event.get_string("class").value_or("");
            out.kill_survivors = event.get_uint("survivors").value_or(0);
            out.kill_budget_states = event.get_uint("budget_states").value_or(0);
            out.kill_max_depth = event.get_uint("max_depth").value_or(0);
            // A new pass restarts the attempt tallies.
            out.kill_attempts.clear();
            out.kill_by_mutant_.clear();
            out.have_kill_summary = false;
        } else if (kind == "kill-start" || kind == "kill-candidate" ||
                   kind == "kill-verified" || kind == "kill-gave-up") {
            const auto mutant = event.get_string("mutant");
            if (mutant) {
                const auto [it, inserted] =
                    out.kill_by_mutant_.emplace(*mutant,
                                                out.kill_attempts.size());
                if (inserted) {
                    KillAttempt attempt;
                    attempt.mutant = *mutant;
                    out.kill_attempts.push_back(std::move(attempt));
                }
                KillAttempt& attempt = out.kill_attempts[it->second];
                if (kind == "kill-start") {
                    attempt = KillAttempt{};
                    attempt.mutant = *mutant;
                } else if (kind == "kill-candidate") {
                    attempt.candidate_calls = event.get_uint("calls").value_or(0);
                    attempt.states = event.get_uint("states").value_or(0);
                    attempt.widened = event.get_bool("widened").value_or(false);
                } else if (kind == "kill-verified") {
                    attempt.outcome = "verified";
                    attempt.reason = event.get_string("reason").value_or("?");
                    attempt.calls = event.get_uint("calls").value_or(0);
                    attempt.shrink_steps =
                        event.get_uint("shrink_steps").value_or(0);
                    attempt.corpus = event.get_string("corpus").value_or("");
                } else {  // kill-gave-up
                    attempt.outcome = event.get_string("status").value_or("?");
                    attempt.states = event.get_uint("states").value_or(0);
                }
            }
        } else if (kind == "kill-run-end") {
            out.have_kill_summary = true;
            out.kill_verified = event.get_uint("verified").value_or(0);
            out.kill_killed_before = event.get_uint("killed_before").value_or(0);
            out.kill_killed_after = event.get_uint("killed_after").value_or(0);
            out.kill_score_before =
                event.get_string("score_before").value_or("");
            out.kill_score_after = event.get_string("score_after").value_or("");
        } else if (kind == "worker-connect") {
            ++out.worker_connects;
        } else if (kind == "worker-disconnect") {
            ++out.worker_disconnects;
        } else if (kind == "worker-redispatch") {
            ++out.redispatched;
        } else if (kind == "worker-session") {
            ++out.serve_sessions;
        } else if (kind == "metrics-snapshot") {
            ++out.metrics_snapshots;
        }
        // Unknown event kinds pass through untallied: the schema may
        // grow and old reporters should not reject new streams.
    }
}

TelemetryStats TelemetryStats::from_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw Error("cannot open telemetry file: " + path);
    return from_stream(in);
}

TelemetryStats TelemetryStats::from_files(
    const std::vector<std::string>& paths) {
    TelemetryStats out;
    for (const std::string& path : paths) {
        std::ifstream in(path);
        if (!in) throw Error("cannot open telemetry file: " + path);
        out.absorb_stream(in);
    }
    return out;
}

std::map<std::string, std::size_t> TelemetryStats::fate_counts() const {
    std::map<std::string, std::size_t> out;
    for (const Item& item : items) ++out[item.fate];
    return out;
}

std::map<std::string, std::size_t> TelemetryStats::kill_reasons() const {
    std::map<std::string, std::size_t> out;
    // Declared kinds first: a detector that killed nothing renders as
    // an explicit zero row instead of silently vanishing.
    for (const std::string& name : declared_kill_reasons) out[name];
    for (const Item& item : items) {
        if (item.fate == "killed") ++out[item.reason];
    }
    return out;
}

std::size_t TelemetryStats::model_only_kills() const {
    std::size_t out = 0;
    for (const Item& item : items) {
        out += (item.fate == "killed" && item.model_only) ? 1 : 0;
    }
    return out;
}

std::map<std::string, std::size_t> TelemetryStats::sandbox_kinds() const {
    std::map<std::string, std::size_t> out;
    for (const Item& item : items) {
        if (!item.sandbox.empty()) ++out[item.sandbox];
    }
    return out;
}

std::vector<TelemetryStats::WorkerLoad> TelemetryStats::worker_loads() const {
    std::map<std::uint64_t, WorkerLoad> by_worker;
    for (const Item& item : items) {
        if (!item.has_timing) continue;
        WorkerLoad& load = by_worker[item.worker];
        load.worker = item.worker;
        ++load.items;
        load.busy_ms += item.wall_ms;
    }
    std::vector<WorkerLoad> out;
    out.reserve(by_worker.size());
    for (const auto& [id, load] : by_worker) out.push_back(load);
    return out;
}

namespace {

/// "Class::Method@site.Operator.detail" -> "Operator"; "?" when the id
/// does not follow the mutant naming scheme.
std::string operator_of(const std::string& mutant) {
    const std::size_t at = mutant.find('@');
    if (at == std::string::npos) return "?";
    const std::size_t first_dot = mutant.find('.', at + 1);
    if (first_dot == std::string::npos) return "?";
    std::size_t second_dot = mutant.find('.', first_dot + 1);
    if (second_dot == std::string::npos) second_dot = mutant.size();
    return mutant.substr(first_dot + 1, second_dot - first_dot - 1);
}

/// Exact order statistic over a sorted sample (nearest-rank).
double exact_percentile(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    const double rank = q * static_cast<double>(sorted.size());
    std::size_t index =
        rank <= 1.0 ? 0 : static_cast<std::size_t>(std::ceil(rank)) - 1;
    if (index >= sorted.size()) index = sorted.size() - 1;
    return sorted[index];
}

}  // namespace

std::vector<TelemetryStats::OperatorLatency>
TelemetryStats::operator_latencies() const {
    std::map<std::string, std::vector<double>> samples;
    for (const Item& item : items) {
        if (item.has_timing) samples[operator_of(item.mutant)].push_back(item.wall_ms);
    }
    std::vector<OperatorLatency> out;
    out.reserve(samples.size());
    for (auto& [op, values] : samples) {
        std::sort(values.begin(), values.end());
        OperatorLatency row;
        row.op = op;
        row.items = values.size();
        row.p50_ms = exact_percentile(values, 0.50);
        row.p90_ms = exact_percentile(values, 0.90);
        row.p99_ms = exact_percentile(values, 0.99);
        out.push_back(std::move(row));
    }
    return out;
}

void TelemetryStats::render(std::ostream& os, std::size_t top) const {
    os << "campaign: " << (class_name.empty() ? "?" : class_name);
    if (!campaign.empty()) os << "  [" << campaign << "]";
    os << "\n"
       << "  seed " << seed << ", jobs " << jobs << ", " << declared_mutants
       << " mutant(s), " << cases << " case(s)\n"
       << "  " << generations << " generation(s), " << lines << " line(s)";
    if (malformed_lines != 0) {
        os << " (" << malformed_lines << " malformed, dropped)";
    }
    os << "\n"
       << "  items: " << items.size() << " classified, " << finishes
       << " executed, " << resumes << " resumed";
    if (shrunk_items != 0) os << ", " << shrunk_items << " kill(s) shrunk";
    os << "\n";
    // Distributed runs only: absent for single-process streams, so
    // their reports are byte-unchanged.
    if (worker_connects != 0 || worker_disconnects != 0 || redispatched != 0 ||
        serve_sessions != 0) {
        os << "  dispatch: " << worker_connects << " worker connect(s), "
           << worker_disconnects << " disconnect(s), " << redispatched
           << " item(s) re-dispatched";
        if (serve_sessions != 0) {
            os << ", " << serve_sessions << " serve session(s)";
        }
        if (streams > 1) os << ", " << streams << " stream(s)";
        os << "\n";
    }
    if (have_summary) {
        os << "  final: score " << support::percent(score) << ", " << workers
           << " worker(s), " << steals << " steal(s), wall "
           << format_ms(wall_ms) << " ms\n";
    } else {
        os << "  final: no campaign-end event (interrupted run)\n";
    }
    os << "\n";

    const auto fates = fate_counts();
    if (!fates.empty()) {
        support::TextTable table({"fate", "count", "share"});
        for (const auto& [fate, count] : fates) {
            table.add_row({fate, std::to_string(count),
                           support::percent(static_cast<double>(count) /
                                            static_cast<double>(items.size()))});
        }
        table.add_footer({"total", std::to_string(items.size()), ""});
        table.render(os);
        os << "\n";
    }

    const auto reasons = kill_reasons();
    if (!reasons.empty()) {
        support::TextTable table({"kill reason", "kills"});
        for (const auto& [reason, count] : reasons) {
            table.add_row({reason, std::to_string(count)});
        }
        table.render(os);
        os << "\n";
    }

    // Oracle strength (model-oracle campaigns): how many kills the
    // base assertion/crash/output-diff oracle scored on its own versus
    // kills that exist only because the reference model diverged —
    // the Table 2-style with/without comparison of docs/GUIDE.md §8.
    if (model && !items.empty()) {
        std::size_t total_killed = 0;
        for (const Item& item : items) {
            total_killed += item.fate == "killed" ? 1 : 0;
        }
        const std::size_t only_model = model_only_kills();
        support::TextTable table({"oracle strength", "mutants"});
        table.add_row({"killed by base oracle",
                       std::to_string(total_killed - only_model)});
        table.add_row({"killed only by model", std::to_string(only_model)});
        table.add_row({"survived", std::to_string(items.size() - total_killed)});
        table.add_footer({"total", std::to_string(items.size())});
        table.render(os);
        os << "\n";
    }

    // Sandbox terminations (isolated runs only): how the workers died.
    const auto sandbox = sandbox_kinds();
    if (!sandbox.empty()) {
        std::size_t total = 0;
        support::TextTable table({"sandbox termination", "items"});
        for (const auto& [kind, count] : sandbox) {
            table.add_row({kind, std::to_string(count)});
            total += count;
        }
        table.add_footer({"total", std::to_string(total)});
        table.render(os);
        os << "\n";
    }

    std::vector<const Item*> timed;
    for (const Item& item : items) {
        if (item.has_timing) timed.push_back(&item);
    }
    std::sort(timed.begin(), timed.end(), [](const Item* a, const Item* b) {
        if (a->wall_ms != b->wall_ms) return a->wall_ms > b->wall_ms;
        return a->index < b->index;
    });
    if (!timed.empty()) {
        support::TextTable table({"slowest item", "fate", "reason", "wall ms",
                                  "worker"});
        const std::size_t n = std::min(top, timed.size());
        for (std::size_t i = 0; i < n; ++i) {
            const Item& item = *timed[i];
            table.add_row({item.mutant, item.fate,
                           item.fate == "killed" ? item.reason : "-",
                           format_ms(item.wall_ms),
                           std::to_string(item.worker)});
        }
        table.render(os);
        os << "\n";
    }

    const auto loads = worker_loads();
    if (!loads.empty()) {
        double total_busy = 0.0;
        for (const WorkerLoad& load : loads) total_busy += load.busy_ms;
        support::TextTable table({"worker", "items", "busy ms", "share"});
        for (const WorkerLoad& load : loads) {
            table.add_row({std::to_string(load.worker),
                           std::to_string(load.items), format_ms(load.busy_ms),
                           support::percent(total_busy == 0.0
                                                ? 0.0
                                                : load.busy_ms / total_busy)});
        }
        table.render(os);
    }

    if (fuzz_runs != 0) {
        os << "\nfuzz: " << (fuzz_class.empty() ? "?" : fuzz_class) << "  seed "
           << fuzz_seed << "\n";
        if (have_fuzz_summary) {
            os << "  " << fuzz_iterations << " iteration(s), " << fuzz_executions
               << " execution(s), " << fuzz_interesting << " interesting, "
               << "population " << fuzz_population << "\n";
        } else {
            os << "  final: no fuzz-end event (interrupted run)\n";
        }
        if (!fuzz_verdicts.empty()) {
            // Every verdict kind the stream declared — including
            // zero-count setup-error / contract-not-enforced rows, so a
            // kind silently never produced is visible, not hidden.
            std::uint64_t total = 0;
            support::TextTable table({"verdict", "executions"});
            for (const auto& [verdict, count] : fuzz_verdicts) {
                table.add_row({verdict, std::to_string(count)});
                total += count;
            }
            table.add_footer({"total", std::to_string(total)});
            os << "\n";
            table.render(os);
        }
        if (!fuzz_findings.empty()) {
            support::TextTable table(
                {"finding", "verdict", "iteration", "shrink steps", "calls"});
            for (const FuzzFinding& finding : fuzz_findings) {
                table.add_row({finding.key, finding.verdict,
                               std::to_string(finding.iteration),
                               std::to_string(finding.shrink_steps),
                               std::to_string(finding.calls)});
            }
            os << "\n";
            table.render(os);
        }
    }

    if (kill_runs != 0) {
        os << "\nkill: " << (kill_class.empty() ? "?" : kill_class) << "  "
           << kill_survivors << " survivor(s), budget " << kill_budget_states
           << " state(s), depth " << kill_max_depth << "\n";
        if (have_kill_summary) {
            os << "  " << kill_verified << " verified, killed "
               << kill_killed_before << " -> " << kill_killed_after
               << ", score " << kill_score_before << " -> " << kill_score_after
               << "\n";
        } else {
            os << "  final: no kill-run-end event (interrupted pass)\n";
        }
        if (!kill_attempts.empty()) {
            support::TextTable table({"survivor", "outcome", "reason", "states",
                                      "calls", "corpus"});
            for (const KillAttempt& attempt : kill_attempts) {
                std::string outcome = attempt.outcome;
                if (attempt.widened && attempt.outcome == "verified") {
                    outcome += " (widened)";
                }
                table.add_row(
                    {attempt.mutant, outcome,
                     attempt.outcome == "verified" ? attempt.reason : "-",
                     std::to_string(attempt.states),
                     attempt.outcome == "verified"
                         ? std::to_string(attempt.calls)
                         : "-",
                     attempt.corpus.empty() ? "-" : attempt.corpus});
            }
            os << "\n";
            table.render(os);
        }
    }
}

void TelemetryStats::render_follow(std::ostream& os, double elapsed_s) const {
    const std::size_t done = items.size();
    const std::uint64_t total = declared_mutants;

    os << "follow: " << (class_name.empty() ? "?" : class_name) << "  " << done;
    if (total != 0) os << "/" << total;
    os << " item(s)";
    const auto fates = fate_counts();
    for (const auto& [fate, count] : fates) {
        os << "  " << fate << "=" << count;
    }
    os << "\n";

    os << "  rate ";
    if (elapsed_s > 0.0 && done > 0) {
        const double rate = static_cast<double>(done) / elapsed_s;
        char buffer[64];
        std::snprintf(buffer, sizeof buffer, "%.1f", rate);
        os << buffer << " item(s)/s";
        if (total > done) {
            std::snprintf(buffer, sizeof buffer, "%.0f",
                          static_cast<double>(total - done) / rate);
            os << "  eta " << buffer << "s";
        } else if (total != 0) {
            os << "  eta 0s";
        }
    } else {
        os << "- item(s)/s";
    }
    if (have_summary) os << "  [campaign complete]";
    os << "\n";

    const auto loads = worker_loads();
    if (!loads.empty()) {
        double total_busy = 0.0;
        for (const WorkerLoad& load : loads) total_busy += load.busy_ms;
        os << "  workers:";
        for (const WorkerLoad& load : loads) {
            os << "  w" << load.worker << " " << load.items << " ("
               << support::percent(total_busy == 0.0
                                       ? 0.0
                                       : load.busy_ms / total_busy)
               << ")";
        }
        os << "\n";
    }

    const auto operators = operator_latencies();
    if (!operators.empty()) {
        os << "  operator p50/p90/p99 ms:";
        for (const OperatorLatency& row : operators) {
            os << "  " << row.op << " " << format_ms(row.p50_ms) << "/"
               << format_ms(row.p90_ms) << "/" << format_ms(row.p99_ms);
        }
        os << "\n";
    }
}

namespace {

/// Shortest round-trippable JSON number (same rendering JsonObject uses).
std::string json_number(double d) {
    if (!std::isfinite(d)) return "null";
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%.17g", d);
    return buffer;
}

void write_count_map(std::ostream& os, const char* key,
                     const std::map<std::string, std::size_t>& counts) {
    os << "\"" << key << "\":{";
    bool first = true;
    for (const auto& [name, count] : counts) {
        if (!first) os << ',';
        first = false;
        os << '"' << json_escape(name) << "\":" << count;
    }
    os << "}";
}

}  // namespace

void TelemetryStats::write_json(std::ostream& os, std::size_t top) const {
    os << "{\"class\":\"" << json_escape(class_name) << "\",\"campaign\":\""
       << json_escape(campaign) << "\",\"seed\":" << seed
       << ",\"jobs\":" << jobs << ",\"declared_mutants\":" << declared_mutants
       << ",\"cases\":" << cases << ",\"model\":" << (model ? "true" : "false")
       << ",\"generations\":" << generations << ",\"lines\":" << lines
       << ",\"malformed_lines\":" << malformed_lines
       << ",\"streams\":" << streams << ",\"items\":" << items.size()
       << ",\"executed\":" << finishes << ",\"resumed\":" << resumes
       << ",\"shrunk\":" << shrunk_items;

    os << ",\"dispatch\":{\"worker_connects\":" << worker_connects
       << ",\"worker_disconnects\":" << worker_disconnects
       << ",\"redispatched\":" << redispatched
       << ",\"serve_sessions\":" << serve_sessions
       << ",\"metrics_snapshots\":" << metrics_snapshots << "}";

    if (have_summary) {
        os << ",\"final\":{\"killed\":" << killed
           << ",\"equivalent\":" << equivalent
           << ",\"not_covered\":" << not_covered << ",\"executed\":" << executed
           << ",\"workers\":" << workers << ",\"steals\":" << steals
           << ",\"score\":" << json_number(score)
           << ",\"wall_ms\":" << json_number(wall_ms) << "}";
    } else {
        os << ",\"final\":null";
    }

    os << ',';
    write_count_map(os, "fates", fate_counts());
    os << ',';
    write_count_map(os, "kill_reasons", kill_reasons());
    os << ",\"model_only_kills\":" << model_only_kills() << ',';
    write_count_map(os, "sandbox", sandbox_kinds());

    os << ",\"workers_load\":[";
    bool first = true;
    for (const WorkerLoad& load : worker_loads()) {
        if (!first) os << ',';
        first = false;
        os << "{\"worker\":" << load.worker << ",\"items\":" << load.items
           << ",\"busy_ms\":" << json_number(load.busy_ms) << "}";
    }
    os << "]";

    os << ",\"operators\":[";
    first = true;
    for (const OperatorLatency& row : operator_latencies()) {
        if (!first) os << ',';
        first = false;
        os << "{\"operator\":\"" << json_escape(row.op)
           << "\",\"items\":" << row.items
           << ",\"p50_ms\":" << json_number(row.p50_ms)
           << ",\"p90_ms\":" << json_number(row.p90_ms)
           << ",\"p99_ms\":" << json_number(row.p99_ms) << "}";
    }
    os << "]";

    std::vector<const Item*> timed;
    for (const Item& item : items) {
        if (item.has_timing) timed.push_back(&item);
    }
    std::sort(timed.begin(), timed.end(), [](const Item* a, const Item* b) {
        if (a->wall_ms != b->wall_ms) return a->wall_ms > b->wall_ms;
        return a->index < b->index;
    });
    os << ",\"slowest\":[";
    const std::size_t n = std::min(top, timed.size());
    for (std::size_t i = 0; i < n; ++i) {
        const Item& item = *timed[i];
        if (i != 0) os << ',';
        os << "{\"mutant\":\"" << json_escape(item.mutant) << "\",\"fate\":\""
           << json_escape(item.fate) << "\",\"reason\":\""
           << json_escape(item.reason)
           << "\",\"wall_ms\":" << json_number(item.wall_ms)
           << ",\"worker\":" << item.worker << "}";
    }
    os << "]";

    if (fuzz_runs != 0) {
        os << ",\"fuzz\":{\"runs\":" << fuzz_runs << ",\"class\":\""
           << json_escape(fuzz_class) << "\",\"seed\":" << fuzz_seed
           << ",\"iterations\":" << fuzz_iterations
           << ",\"executions\":" << fuzz_executions
           << ",\"interesting\":" << fuzz_interesting
           << ",\"population\":" << fuzz_population << ",\"verdicts\":{";
        first = true;
        for (const auto& [verdict, count] : fuzz_verdicts) {
            if (!first) os << ',';
            first = false;
            os << '"' << json_escape(verdict) << "\":" << count;
        }
        os << "},\"findings\":[";
        first = true;
        for (const FuzzFinding& finding : fuzz_findings) {
            if (!first) os << ',';
            first = false;
            os << "{\"key\":\"" << json_escape(finding.key)
               << "\",\"verdict\":\"" << json_escape(finding.verdict)
               << "\",\"iteration\":" << finding.iteration
               << ",\"shrink_steps\":" << finding.shrink_steps
               << ",\"calls\":" << finding.calls << "}";
        }
        os << "]}";
    }

    if (kill_runs != 0) {
        os << ",\"kill\":{\"runs\":" << kill_runs << ",\"class\":\""
           << json_escape(kill_class) << "\",\"survivors\":" << kill_survivors
           << ",\"budget_states\":" << kill_budget_states
           << ",\"max_depth\":" << kill_max_depth
           << ",\"verified\":" << kill_verified
           << ",\"killed_before\":" << kill_killed_before
           << ",\"killed_after\":" << kill_killed_after
           << ",\"score_before\":\"" << json_escape(kill_score_before)
           << "\",\"score_after\":\"" << json_escape(kill_score_after)
           << "\",\"attempts\":[";
        first = true;
        for (const KillAttempt& attempt : kill_attempts) {
            if (!first) os << ',';
            first = false;
            os << "{\"mutant\":\"" << json_escape(attempt.mutant)
               << "\",\"outcome\":\"" << json_escape(attempt.outcome)
               << "\",\"reason\":\"" << json_escape(attempt.reason)
               << "\",\"candidate_calls\":" << attempt.candidate_calls
               << ",\"calls\":" << attempt.calls
               << ",\"shrink_steps\":" << attempt.shrink_steps
               << ",\"states\":" << attempt.states
               << ",\"widened\":" << (attempt.widened ? "true" : "false")
               << ",\"corpus\":\"" << json_escape(attempt.corpus) << "\"}";
        }
        os << "]}";
    }

    os << "}\n";
}

std::size_t TelemetryTail::poll(TelemetryStats& stats) {
    std::ifstream in(path_, std::ios::binary);
    if (!in) return 0;
    in.seekg(static_cast<std::streamoff>(offset_));
    if (!in) return 0;

    std::string fresh;
    char chunk[4096];
    for (;;) {
        in.read(chunk, sizeof chunk);
        const std::streamsize got = in.gcount();
        if (got <= 0) break;
        fresh.append(chunk, static_cast<std::size_t>(got));
    }
    offset_ += fresh.size();
    partial_ += fresh;

    std::size_t absorbed = 0;
    std::size_t start = 0;
    for (;;) {
        const std::size_t newline = partial_.find('\n', start);
        if (newline == std::string::npos) break;
        stats.absorb_line(
            std::string_view(partial_).substr(start, newline - start));
        ++absorbed;
        start = newline + 1;
    }
    partial_.erase(0, start);
    return absorbed;
}

}  // namespace stc::obs

// concat — command-line front end of the framework, playing the role of
// the paper's Concat prototype: the offline t-spec steps (validate,
// print, dot, transactions, suite, gen, ...) plus mutation campaigns,
// their distributed and killer-synthesis forms, fuzzing and telemetry.
//
//   concat <command> <operand> [options]
//
// Two tables below define the interface: kCommands (each command, its
// operand and handler) and kFlags (each option, the commands that take
// it, the Options field it sets and how its value is read).  `concat`
// with no arguments renders both.  An option a command does not take is
// a usage error naming the flag (exit 2).
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "shop_component.h"
#include "shop_targets.h"
#include "stc/assembly/product.h"
#include "stc/campaign/scheduler.h"
#include "stc/campaign/seed.h"
#include "stc/campaign/thread_pool.h"
#include "stc/codegen/driver_codegen.h"
#include "stc/core/self_testable.h"
#include "stc/driver/generator.h"
#include "stc/driver/runner.h"
#include "stc/driver/suite_io.h"
#include "stc/fuzz/fuzzer.h"
#include "stc/fuzz/shrink.h"
#include "stc/history/version_diff.h"
#include "stc/kill/kill.h"
#include "stc/kill/reproduce.h"
#include "stc/model/model.h"
#include "stc/mutation/controller.h"
#include "stc/mutation/report.h"
#include "stc/obs/stats.h"
#include "stc/sandbox/codec.h"
#include "stc/sandbox/executor.h"
#include "stc/sandbox/worker_pool.h"
#include "stc/serve/builtin_host.h"
#include "stc/serve/worker.h"
#include "stc/support/error.h"
#include "stc/support/strings.h"
#include "stc/tfm/coverage.h"
#include "stc/tspec/assembly.h"
#include "stc/tspec/parser.h"

namespace {

using namespace stc;

struct Options {
    std::string command;
    std::string tspec_path;  // the operand: t-spec, component or telemetry file
    driver::GeneratorOptions generator;
    codegen::CodegenOptions codegen;
    std::optional<std::string> output_path;
    std::optional<std::string> new_tspec_path;
    std::optional<std::string> frozen_suite_path;
    std::size_t jobs = 1;
    bool probe = false;
    std::optional<std::string> store_path;
    std::optional<std::string> telemetry_path;
    std::optional<std::string> trace_path;
    std::optional<std::string> metrics_path;
    std::size_t top = 10;
    bool follow = false;
    bool json_stats = false;
    bool progress = false;
    std::size_t iters = 500;
    std::optional<std::string> corpus_dir;
    std::size_t max_shrink_steps = 512;
    std::optional<std::string> mutant_id;
    std::optional<std::string> case_path;
    std::optional<std::string> shrink_corpus;
    bool alive = false;
    kill::SearchOptions search;  // --budget-states, --max-depth
    bool assembly = false;
    bool dot_product = false;
    bool list_transactions = false;
    bool isolate = false;
    bool model = false;
    bool prune = true;
    sandbox::SandboxLimits limits;  // --timeout-ms, --rlimit-as
    serve::ServeOptions serve;      // --listen, --bind, --once
    std::optional<std::string> workers;
    serve::DispatchOptions dispatch;  // the --*-ms flags
    std::vector<std::string> extra_inputs;  // stats: more JSONL files
    obs::Context obs;                       // built in main()
};

/// How a flag's value is read: a switch takes none; a count must be a
/// whole non-negative number no larger than the row's bound.
enum class Kind { Switch, String, Criterion, Count };

/// A flag's parsed value; the row's setter reads the member its kind fills.
struct Value {
    std::string text;
    std::uint64_t count = 0;
    tfm::Criterion criterion{};
};

/// One row of the flag table: the flag, its value kind and usage
/// placeholder, the Options field it sets, the commands that accept it
/// ("*" = every command) and its usage line.
struct Flag {
    const char* name;
    Kind kind;
    const char* metavar;
    void (*set)(Options&, const Value&);
    const char* commands;
    const char* help;
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
};

// Millisecond options the dispatch layer holds as int: a larger value
// would wrap negative and insta-kill every worker's keepalive.
constexpr std::uint64_t kIntMs = std::numeric_limits<int>::max();

const Flag kFlags[] = {
    {"--trace-out", Kind::String, "F", [](auto& o, auto& v) { o.trace_path = v.text; },
     "*", "Chrome trace-event JSON of this run"},
    {"--metrics-out", Kind::String, "F",
     [](auto& o, auto& v) { o.metrics_path = v.text; },
     "*", "metrics dump; JSON when F ends in .json"},
    {"-o", Kind::String, "FILE", [](auto& o, auto& v) { o.output_path = v.text; },
     "*", "write output to FILE instead of stdout"},
    {"--seed", Kind::Count, "N", [](auto& o, auto& v) { o.generator.seed = v.count; },
     "suite gen campaign kill fuzz run dispatch", "random seed for value generation"},
    {"--max-visits", Kind::Count, "N",
     [](auto& o, auto& v) { o.generator.enumeration.max_node_visits = v.count; },
     "describe transactions coverage assemble suite gen campaign kill fuzz run dispatch",
     "cycle unrolling bound (default 2)"},
    {"--cases", Kind::Count, "N",
     [](auto& o, auto& v) { o.generator.cases_per_transaction = v.count; },
     "suite gen campaign kill fuzz run dispatch",
     "test cases per transaction (default 1)"},
    {"--criterion", Kind::Criterion, "C",
     [](auto& o, auto& v) { o.generator.criterion = v.criterion; },
     "transactions coverage assemble suite gen campaign kill run dispatch",
     "all-transactions | all-links | all-nodes"},
    {"--states", Kind::Switch, "",
     [](auto& o, auto&) { o.generator.include_entry_states = true; },
     "suite gen campaign kill run dispatch",
     "also generate mid-life entry variants (State records)"},
    {"--include", Kind::String, "H",
     [](auto& o, auto& v) { o.codegen.includes.push_back(v.text); },
     "gen", "#include to emit; repeatable"},
    {"--using", Kind::String, "NS",
     [](auto& o, auto& v) { o.codegen.usings.push_back(v.text); },
     "gen", "using namespace to emit; repeatable"},
    {"--log", Kind::String, "FILE", [](auto& o, auto& v) { o.codegen.log_file = v.text; },
     "gen", "log file used by the generated driver"},
    {"--new", Kind::String, "FILE", [](auto& o, auto& v) { o.new_tspec_path = v.text; },
     "replan", "the new release's t-spec (required)"},
    {"--frozen", Kind::String, "FILE",
     [](auto& o, auto& v) { o.frozen_suite_path = v.text; },
     "replan", "the frozen concat-suite file (required); -o gets its still-valid cases"},
    {"--assembly", Kind::Switch, "", [](auto& o, auto&) { o.assembly = true; },
     "campaign kill dispatch",
     "the target is an assembly product; required for assembly targets, rejected for "
     "single-class ones"},
    {"--dot", Kind::Switch, "", [](auto& o, auto&) { o.dot_product = true; },
     "assemble", "Graphviz DOT of the product TFM"},
    {"--transactions", Kind::Switch, "",
     [](auto& o, auto&) { o.list_transactions = true; },
     "assemble", "enumerate the product's transactions"},
    {"--jobs", Kind::Count, "N", [](auto& o, auto& v) { o.jobs = v.count; },
     "campaign kill", "worker threads; 0 = all cores (default 1)"},
    {"--probe", Kind::Switch, "", [](auto& o, auto&) { o.probe = true; },
     "campaign kill dispatch", "amplified probe suite for equivalence"},
    {"--resume", Kind::String, "FILE", [](auto& o, auto& v) { o.store_path = v.text; },
     "campaign kill dispatch",
     "resumable result store (JSONL); kill requires it, reads the survivors from it and "
     "writes raised fates back"},
    {"--telemetry-out", Kind::String, "F",
     [](auto& o, auto& v) { o.telemetry_path = v.text; },
     "campaign kill fuzz serve dispatch", "JSONL telemetry"},
    {"--shrink-corpus", Kind::String, "DIR",
     [](auto& o, auto& v) { o.shrink_corpus = v.text; },
     "campaign",
     "after the campaign, shrink each kill into corpus directory DIR (refused with "
     "--isolate)"},
    {"--isolate", Kind::Switch, "", [](auto& o, auto&) { o.isolate = true; },
     "campaign fuzz",
     "run each item in a forked sandbox worker: a real crash/hang/OOM kills only the "
     "worker"},
    {"--timeout-ms", Kind::Count, "N", [](auto& o, auto& v) { o.limits.timeout_ms = v.count; },
     "campaign fuzz",
     "with --isolate: per-item wall deadline, then SIGKILL (default 5000; 0 disables)"},
    {"--rlimit-as", Kind::Count, "MB", [](auto& o, auto& v) { o.limits.rlimit_as_mb = v.count; },
     "campaign fuzz", "with --isolate: worker address-space cap (RLIMIT_AS)"},
    {"--model", Kind::Switch, "", [](auto& o, auto&) { o.model = true; },
     "campaign kill fuzz run dispatch",
     "lockstep reference-model oracle (stc::model): kills/verdicts on divergence"},
    {"--prune", Kind::Switch, "", [](auto& o, auto&) { o.prune = true; },
     "campaign kill dispatch",
     "the fast execution tier (default on): skip (mutant, case) pairs the coverage index "
     "proves unreachable and resume covered cases from shared-prefix checkpoints; fates "
     "are byte-identical either way"},
    {"--no-prune", Kind::Switch, "", [](auto& o, auto&) { o.prune = false; },
     "campaign kill dispatch", "run every (mutant, case) pair: the exhaustive reference"},
    {"--alive", Kind::Switch, "", [](auto& o, auto&) { o.alive = true; },
     "kill", "target the store's surviving mutants (required)"},
    {"--budget-states", Kind::Count, "N",
     [](auto& o, auto& v) { o.search.budget_states = v.count; },
     "kill",
     "product states the search may enqueue per mutant, across all value rounds "
     "(default 4096)"},
    {"--max-depth", Kind::Count, "N", [](auto& o, auto& v) { o.search.max_depth = v.count; },
     "kill", "longest explored call path (default 12)"},
    {"--iters", Kind::Count, "N", [](auto& o, auto& v) { o.iters = v.count; },
     "fuzz", "exploration executions (default 500)"},
    {"--corpus", Kind::String, "DIR", [](auto& o, auto& v) { o.corpus_dir = v.text; },
     "kill fuzz shrink", "corpus directory for reproducers"},
    {"--mutant", Kind::String, "ID", [](auto& o, auto& v) { o.mutant_id = v.text; },
     "fuzz run shrink",
     "activate this mutant while running (shrink: instead of the entry's)"},
    {"--max-shrink-steps", Kind::Count, "N",
     [](auto& o, auto& v) { o.max_shrink_steps = v.count; },
     "campaign kill fuzz shrink", "shrink budget per finding (default 512)"},
    {"--case", Kind::String, "FILE", [](auto& o, auto& v) { o.case_path = v.text; },
     "shrink", "the corpus entry to re-shrink (required)"},
    {"--top", Kind::Count, "N", [](auto& o, auto& v) { o.top = v.count; },
     "stats", "rows in the slowest-item table (default 10)"},
    {"--follow", Kind::Switch, "", [](auto& o, auto&) { o.follow = true; },
     "stats",
     "tail ONE growing telemetry file, re-render a live snapshot per batch, exit at "
     "campaign-end"},
    {"--json", Kind::Switch, "", [](auto& o, auto&) { o.json_stats = true; },
     "stats", "machine-readable summary instead of tables"},
    {"--listen", Kind::Count, "PORT", [](auto& o, auto& v) { o.serve.port = v.count; },
     "serve", "TCP port to listen on (0 = ephemeral, printed on stdout)", 65535},
    {"--bind", Kind::String, "ADDR", [](auto& o, auto& v) { o.serve.bind_host = v.text; },
     "serve",
     "listen address (default 127.0.0.1; the protocol is unauthenticated, so 0.0.0.0 "
     "opts in to cross-host exposure)"},
    {"--once", Kind::Switch, "", [](auto& o, auto&) { o.serve.once = true; },
     "serve", "exit after one coordinator session"},
    {"--workers", Kind::String, "LIST", [](auto& o, auto& v) { o.workers = v.text; },
     "dispatch", "comma-separated host:port daemons (required)"},
    {"--keepalive-ms", Kind::Count, "N",
     [](auto& o, auto& v) { o.dispatch.keepalive_ms = v.count; },
     "dispatch", "silence before a ping (default 500)", kIntMs},
    {"--dead-after-ms", Kind::Count, "N",
     [](auto& o, auto& v) { o.dispatch.dead_after_ms = v.count; },
     "dispatch",
     "silence before a worker is declared dead and its items re-dispatched "
     "(default 5000)",
     kIntMs},
    {"--progress", Kind::Switch, "", [](auto& o, auto&) { o.progress = true; },
     "dispatch", "render a live fleet snapshot to stderr at the telemetry interval"},
    {"--telemetry-interval-ms", Kind::Count, "N",
     [](auto& o, auto& v) { o.dispatch.telemetry_interval_ms = v.count; },
     "dispatch",
     "worker metrics-snapshot and --progress cadence (default 1000; 0 = fates only)",
     kIntMs},
};

bool accepts(const Flag& flag, const std::string& command) {
    if (std::strcmp(flag.commands, "*") == 0) return true;
    const std::string list = " " + std::string(flag.commands) + " ";
    return list.find(" " + command + " ") != std::string::npos;
}

/// The row of `table` named `name`, or nullptr.
template <typename Row, std::size_t N>
const Row* find_row(const Row (&table)[N], const std::string& name) {
    for (const Row& row : table) {
        if (name == row.name) return &row;
    }
    return nullptr;
}

/// Read `value.text` as `flag`'s kind wants it; false (with a message)
/// on a malformed or out-of-range value, so `--jobs banana` is a usage
/// error, not an abort.
bool read_value(const Flag& flag, Value& value) {
    if (flag.kind == Kind::Criterion) {
        const auto criterion = tfm::criterion_from_string(value.text);
        if (!criterion) {
            std::cerr << "concat: " << flag.name << " expects " << flag.help
                      << ", got '" << value.text << "'\n";
            return false;
        }
        value.criterion = *criterion;
    } else if (flag.kind == Kind::Count) {
        const char* end = value.text.data() + value.text.size();
        const auto [p, ec] =
            std::from_chars(value.text.data(), end, value.count);
        if (ec != std::errc() || p != end || value.count > flag.max) {
            std::cerr << "concat: " << flag.name << " expects a non-negative number";
            if (flag.max != std::numeric_limits<std::uint64_t>::max()) {
                std::cerr << " no larger than " << flag.max;
            }
            std::cerr << ", got '" << value.text << "'\n";
            return false;
        }
    }
    return true;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw Error("cannot open t-spec file: " + path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

int emit(const Options& options, const std::string& text) {
    if (options.output_path) {
        std::ofstream out(*options.output_path);
        if (!out) throw Error("cannot write output file: " + *options.output_path);
        out << text;
        std::cout << "wrote " << text.size() << " bytes to " << *options.output_path
                  << "\n";
    } else {
        std::cout << text;
    }
    return 0;
}

int cmd_validate(const Options& options, const tspec::ComponentSpec& spec) {
    (void)options;
    const auto spec_problems = spec.validate();
    for (const auto& p : spec_problems) {
        std::cout << "spec: [" << p.where << "] " << p.message << "\n";
    }
    std::vector<tfm::Diagnostic> model_problems;
    if (spec_problems.empty() && !spec.nodes.empty()) {
        model_problems = spec.build_tfm().diagnose();
        for (const auto& d : model_problems) {
            std::cout << "model: [" << (d.node_id.empty() ? "*" : d.node_id) << "] "
                      << to_string(d.kind) << ": " << d.detail << "\n";
        }
    }
    const bool clean = spec_problems.empty() && model_problems.empty();
    std::cout << spec.class_name << ": " << (clean ? "valid" : "INVALID") << " ("
              << spec.methods.size() << " method(s), " << spec.nodes.size()
              << " node(s), " << spec.edges.size() << " edge(s))\n";
    return clean ? 0 : 1;
}

int cmd_describe(const Options& options, const tspec::ComponentSpec& spec) {
    std::ostringstream out;
    out << "class " << spec.class_name;
    if (spec.is_abstract) out << " (abstract)";
    if (!spec.superclass.empty()) out << " : " << spec.superclass;
    out << "\n";

    if (!spec.attributes.empty()) {
        out << "attributes:\n";
        for (const auto& a : spec.attributes) {
            out << "  " << a.name << " : "
                << (a.domain ? a.domain->describe()
                             : std::string(to_string(a.type)) + " " + a.class_name)
                << "\n";
        }
    }
    out << "methods:\n";
    for (const auto& m : spec.methods) {
        out << "  " << m.id << "  " << m.signature();
        if (!m.return_type.empty()) out << " -> " << m.return_type;
        out << "  [" << to_string(m.category) << "]\n";
    }
    if (!spec.states.empty()) {
        out << "predefined states:";
        for (const auto& st : spec.states) out << " " << st;
        out << "\n";
    }
    for (const auto& [param, types] : spec.template_bindings) {
        out << "template parameter " << param << ":";
        for (const auto& t : types) out << " " << t;
        out << "\n";
    }
    if (!spec.nodes.empty()) {
        const auto graph = spec.build_tfm();
        const auto transactions =
            graph.enumerate_transactions(options.generator.enumeration);
        out << "test model: " << graph.node_count() << " node(s), "
            << graph.edge_count() << " link(s), " << transactions.size()
            << " transaction(s)\n";
    }
    return emit(options, out.str());
}

int cmd_transactions(const Options& options, const tspec::ComponentSpec& spec) {
    const auto graph = spec.build_tfm();
    const auto all = graph.enumerate_transactions(options.generator.enumeration);
    const auto selected =
        tfm::select_transactions(graph, all, options.generator.criterion);
    std::ostringstream out;
    for (std::size_t index : selected) {
        out << graph.describe(all[index]) << "\n";
    }
    out << "# " << selected.size() << " transaction(s) selected of " << all.size()
        << " enumerated (" << to_string(options.generator.criterion) << ")\n";
    return emit(options, out.str());
}

// `concat assemble ASSEMBLY.tspec`: parse an assembly block, resolve
// each role's t-spec and build the synchronous product (stc::assembly).
// Roles with a `spec "file"` clause load that t-spec relative to the
// assembly file's directory; roles without one resolve to the built-in
// example specs by class name (Wallet, Ledger, Inventory,
// StockControl).  Default output is the construction stats plus the
// synthesized spec's validation verdict; --dot renders the product TFM
// and --transactions enumerates its transactions, exactly as the plain
// `dot` / `transactions` commands do for a single-class t-spec.
int cmd_assemble(const Options& options) {
    const auto assembly = tspec::parse_assembly(read_file(options.tspec_path));
    std::map<std::string, tspec::ComponentSpec> role_specs;
    const auto base = std::filesystem::path(options.tspec_path).parent_path();
    for (const auto& role : assembly.roles) {
        if (!role.spec_file.empty()) {
            role_specs.emplace(role.id, tspec::parse_tspec(read_file(
                                            (base / role.spec_file).string())));
        } else {
            role_specs.emplace(role.id,
                               examples::shop_role_spec_for(role.class_name));
        }
    }
    const auto product = assembly::build_product(assembly, role_specs);

    if (options.dot_product) {
        return emit(options, product.spec.build_tfm().to_dot());
    }
    if (options.list_transactions) {
        return cmd_transactions(options, product.spec);
    }

    std::ostringstream out;
    out << "assembly " << assembly.name << ": " << assembly.roles.size()
        << " role(s), " << assembly.wiring.size() << " wire(s), "
        << assembly.exports.size() << " export(s)\n"
        << assembly::describe(product.stats);
    // build_product already rejects hard errors; re-validating the
    // synthesized spec here keeps the command an end-to-end check.
    const auto spec_problems = product.spec.validate();
    for (const auto& p : spec_problems) {
        out << "product spec: [" << p.where << "] " << p.message << "\n";
    }
    out << "product " << product.spec.class_name << ": "
        << (spec_problems.empty() ? "valid" : "INVALID") << " ("
        << product.spec.methods.size() << " method(s), "
        << product.spec.nodes.size() << " node(s), "
        << product.spec.edges.size() << " edge(s))\n";
    const int rc = emit(options, out.str());
    return spec_problems.empty() ? rc : 1;
}

int cmd_coverage(const Options& options, const tspec::ComponentSpec& spec) {
    const auto graph = spec.build_tfm();
    const auto all = graph.enumerate_transactions(options.generator.enumeration);
    const auto selected =
        tfm::select_transactions(graph, all, options.generator.criterion);
    std::vector<tfm::Transaction> chosen;
    chosen.reserve(selected.size());
    for (std::size_t index : selected) chosen.push_back(all[index]);
    const auto report = tfm::measure_coverage(graph, chosen);

    std::ostringstream out;
    out << "criterion: " << to_string(options.generator.criterion) << "\n"
        << "transactions: " << chosen.size() << " of " << all.size()
        << " enumerated\n"
        << "node coverage: " << report.nodes_covered << "/" << report.nodes_total
        << "\n"
        << "link coverage: " << report.edges_covered << "/" << report.edges_total
        << "\n";
    return emit(options, out.str());
}

int cmd_suite(const Options& options, const tspec::ComponentSpec& spec) {
    const auto suite = driver::DriverGenerator(spec, options.generator).generate();
    std::ostringstream out;
    driver::save_suite(out, suite);
    return emit(options, out.str());
}

int cmd_gen(const Options& options, const tspec::ComponentSpec& spec) {
    const auto suite = driver::DriverGenerator(spec, options.generator).generate();
    const codegen::DriverCodegen generator(spec, options.codegen);
    return emit(options, generator.suite_source(suite));
}

int cmd_replan(const Options& options, const tspec::ComponentSpec& old_spec) {
    if (!options.new_tspec_path || !options.frozen_suite_path) {
        std::cerr << "concat replan: --new and --frozen are required\n";
        return 2;
    }
    const auto new_spec = tspec::parse_tspec(read_file(*options.new_tspec_path));
    std::ifstream frozen_in(*options.frozen_suite_path);
    if (!frozen_in) {
        throw Error("cannot open frozen suite: " + *options.frozen_suite_path);
    }
    const auto frozen = driver::load_suite(frozen_in);

    const auto delta = history::diff_specs(old_spec, new_spec);
    const auto plan = history::replan_suite(frozen, delta);

    std::cout << "release diff for " << old_spec.class_name << ":\n";
    for (const auto& [id, change] : delta.methods) {
        if (change == history::MethodChange::Unchanged) continue;
        std::cout << "  " << id << ": " << to_string(change) << "\n";
    }
    if (delta.model_changed) std::cout << "  (test model changed)\n";
    std::cout << "frozen suite: " << frozen.size() << " case(s)\n"
              << "  still valid: " << plan.reusable() << "\n"
              << "  regenerate:  " << plan.regenerate.size() << "\n"
              << "  obsolete:    " << plan.obsolete.size() << "\n";

    if (options.output_path) {
        std::ofstream out(*options.output_path);
        if (!out) throw Error("cannot write output file: " + *options.output_path);
        driver::save_suite(out, plan.still_valid);
        std::cout << "wrote the still-valid suite to " << *options.output_path
                  << "\n";
    }
    return 0;
}

/// Assembly targets and --assembly must travel together: a campaign or
/// dispatch over an assembly product states so explicitly, and a
/// single-class target rejects the flag — the report headers look alike
/// and a silent mixup would invalidate the interface-vs-assembly
/// comparison.  Returns the exit code: 0 when consistent, or when the
/// target is unknown (the caller reports that).
int check_assembly_flag(const Options& options, const serve::BuiltinTarget* target) {
    if (target == nullptr || target->assembly == options.assembly) return 0;
    std::cerr << "concat " << options.command << ": '" << options.tspec_path << "' is "
              << (target->assembly ? "an assembly product; pass --assembly\n"
                                   : "a single-class component; drop --assembly\n");
    return 2;
}

/// The campaign config a builtin-target command line names — the same
/// inputs a dispatch ships to its workers in the Hello.
serve::BuiltinCampaignConfig builtin_config(const Options& options) {
    serve::BuiltinCampaignConfig config;
    config.component = options.tspec_path;
    config.generator = options.generator;
    config.probe = options.probe;
    config.model = options.model;
    config.prune = options.prune;
    return config;
}

/// The registered single-class target `kill`, `fuzz`, `run` and `shrink`
/// drive, or nullptr (+ message) for an unknown name or an assembly
/// product, which has neither one class's TFM nor a reference model.
const serve::BuiltinTarget* single_class_target(const Options& options) {
    const std::string& which = options.tspec_path;
    const serve::BuiltinTarget* target = serve::find_builtin_target(which);
    if (target == nullptr) {
        std::cerr << "concat " << options.command << ": unknown component '"
                  << which << "' (expected one of: "
                  << support::join(serve::builtin_target_names(), ", ") << ")\n";
    } else if (target->assembly) {
        std::cerr << "concat " << options.command << ": '" << which
                  << "' is an assembly product; this command takes "
                     "single-class components only\n";
        return nullptr;
    }
    return target;
}

/// The kill path's component and options for a builtin target, shared
/// by `concat kill` and the `campaign --shrink-corpus` post-pass: the
/// campaign's runner (with --model's reference model), --seed, --jobs,
/// --max-shrink-steps and the search flags, and --telemetry-out opened
/// with `mode`.
std::pair<kill::KillContext, kill::KillOptions> kill_inputs(
    const Options& options, const serve::BuiltinInputs& inputs,
    obs::JsonlSink::OpenMode mode) {
    kill::KillContext context;
    context.spec = &inputs.holder.component->spec();
    context.registry = &inputs.holder.component->registry();
    // Null for targets without pointer-typed parameters (the shop
    // assembly): persist_entry then skips recompletion on replay.
    context.completions = inputs.holder.completions;
    context.mutants = &inputs.mutants;
    kill::KillOptions out;
    out.seed = options.generator.seed;
    out.jobs = options.jobs == 0 ? campaign::WorkStealingPool::hardware_workers()
                                 : options.jobs;
    out.max_shrink_steps = options.max_shrink_steps;
    out.obs = options.obs;
    out.search = options.search;
    out.search.seed = options.generator.seed;
    out.search.runner = inputs.options.engine.runner;
    out.search.runner.obs = options.obs;
    out.search.obs = options.obs;
    if (options.telemetry_path) {
        out.telemetry = obs::JsonlSink::to_file(*options.telemetry_path, mode);
    }
    return {context, out};
}

// `concat campaign <component>`: run an interface-mutation campaign
// over a registered target — the built-in MFC components (coblist,
// sortable), the intraclass wallet, the audited-wallet interclass
// system, or the shop assembly product
// (--assembly) — sharded across --jobs workers, or across forked
// sandbox workers under --isolate.  The report (stdout or -o) lists one
// line per mutant in enumeration order plus the Table 2/3 aggregation —
// byte-identical for any --jobs value, tracing on or off;
// scheduling-dependent detail (worker ids, wall times, queue depths)
// goes to the --telemetry-out JSONL stream, spans to --trace-out, and
// timing stats to stderr.
//
// `concat dispatch <component> --workers host:port[,...]` is the same
// campaign with the items shipped to `concat serve` daemons
// (serve::RemoteExecutor): the scheduler shards them deterministically,
// merges the results into per-item slots and renders the same report —
// byte-identical to the local run for any worker count, completion
// order, or mid-run worker death.  Both share the store format, so
// either can --resume the other's store.
int cmd_campaign(const Options& options) {
    const std::string& command = options.command;
    const bool remote = command == "dispatch";
    if (remote && !options.workers) {
        std::cerr << "concat dispatch: --workers is required\n";
        return 2;
    }
    if (options.shrink_corpus && options.isolate) {
        std::cerr << "concat campaign: --shrink-corpus cannot run with --isolate "
                     "(shrinking re-executes mutants in this process, which "
                     "defeats isolation)\n";
        return 2;
    }
    const serve::BuiltinCampaignConfig config = builtin_config(options);
    if (const int rc = check_assembly_flag(
            options, serve::find_builtin_target(config.component))) {
        return rc;
    }
    std::string error;
    auto inputs = serve::make_builtin_inputs(config, &error);
    if (!inputs) {
        std::cerr << "concat " << command << ": " << error << "\n";
        return 2;
    }
    const core::SelfTestableComponent& component = *inputs->holder.component;
    const driver::TestSuite& suite = inputs->suite;

    campaign::CampaignOptions& campaign_options = inputs->options;
    campaign_options.jobs = options.jobs;
    campaign_options.obs = options.obs;
    if (options.store_path) campaign_options.store_path = *options.store_path;
    if (options.telemetry_path) {
        campaign_options.telemetry_path = *options.telemetry_path;
    }
    if (options.isolate) {
        campaign_options.executor =
            std::make_shared<sandbox::SandboxExecutor>(options.limits);
    }

    // dispatch --progress folds every telemetry event — the scheduler's
    // own and the workers' streamed copies — into a live TelemetryStats
    // and re-renders a compact snapshot to stderr at the telemetry
    // interval.  stderr, so the stdout report stays byte-identical to
    // the local run.
    obs::TelemetryStats progress_stats;
    const auto progress_t0 = std::chrono::steady_clock::now();
    auto last_progress = progress_t0;
    const auto render_progress = [&] {
        progress_stats.sort_items();
        progress_stats.render_follow(
            std::cerr, std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - progress_t0)
                           .count());
    };
    std::shared_ptr<serve::RemoteExecutor> fleet;
    if (remote) {
        serve::DispatchOptions dispatch_options = options.dispatch;
        dispatch_options.workers = serve::parse_endpoints(*options.workers);
        dispatch_options.obs = options.obs;
        // Event streaming is requested whenever the coordinator has
        // somewhere to put the workers' events: a --telemetry-out sink
        // (the fleet-wide JSONL) or a --progress view.  Span streaming
        // rides on --trace-out alone (the Hello "trace" field, set by
        // the coordinator when its tracer is enabled).
        dispatch_options.stream_telemetry =
            options.telemetry_path.has_value() || options.progress;
        std::function<void(const obs::JsonObject&)> observe;
        if (options.progress) {
            observe = [&](const obs::JsonObject& event) {
                progress_stats.absorb_event(event);
                const auto now = std::chrono::steady_clock::now();
                if (now - last_progress <
                    std::chrono::milliseconds(
                        std::max(options.dispatch.telemetry_interval_ms, 1))) {
                    return;
                }
                last_progress = now;
                render_progress();
            };
        }
        fleet = std::make_shared<serve::RemoteExecutor>(
            config, std::move(dispatch_options), std::move(observe));
        campaign_options.executor = fleet;
    }

    const campaign::CampaignScheduler scheduler(component.registry(),
                                                campaign_options);
    const auto result =
        scheduler.run(suite, inputs->mutants, inputs->probe_suite());
    if (options.progress) render_progress();  // the closing snapshot

    // --shrink-corpus: reproduce every kill into the corpus, after the
    // campaign and outside the engine, through the path `concat kill`
    // persists its killers with.
    std::size_t shrunk = 0;
    if (options.shrink_corpus) {
        auto [context, pass] =
            kill_inputs(options, *inputs, obs::JsonlSink::OpenMode::Append);
        pass.corpus_dir = *options.shrink_corpus;
        shrunk = kill::shrink_campaign_kills(context, suite, result, pass);
    }
    options.obs.metrics.add("campaign.shrunk", shrunk);

    std::ostringstream report;
    mutation::render_campaign_report(report, result.run, suite.class_name,
                                     suite.size(), options.generator.seed);

    // Scheduling-dependent numbers stay out of the report so that
    // --jobs N, --isolate and dispatch leave it byte-identical.
    if (fleet) {
        const serve::DispatchStats& stats = fleet->stats();
        std::cerr << "dispatch stats: campaign=" << result.fingerprint
                  << " workers=" << stats.workers_connected << "/"
                  << stats.workers << " executed=" << stats.executed
                  << " resumed=" << result.stats.resumed
                  << " redispatched=" << stats.redispatched
                  << " disconnects=" << stats.disconnects
                  << " wall_ms=" << stats.wall_ms << "\n";
    } else {
        std::cerr << "campaign stats: campaign=" << result.fingerprint
                  << " workers=" << result.stats.workers
                  << " executed=" << result.stats.executed
                  << " resumed=" << result.stats.resumed
                  << " steals=" << result.stats.steals
                  << " respawns=" << result.stats.respawns
                  << " shrunk=" << shrunk
                  << " wall_ms=" << result.stats.wall_ms << "\n";
    }
    if (result.stats.pruned) {
        const mutation::PruneStats& pairs = result.stats.pairs;
        std::cerr << "prune stats: executed_pairs=" << pairs.executed_pairs
                  << " pruned_pairs=" << pairs.pruned_pairs
                  << " decided_pairs=" << pairs.decided_pairs
                  << " memoized_pairs=" << pairs.memoized_pairs
                  << " memoized_calls=" << pairs.memoized_calls << "\n";
    }

    return emit(options, report.str());
}

// `concat kill <component> --alive --resume FILE`: synthesize killers
// for the surviving mutants of a finished campaign (stc::kill).  The
// store is matched against the re-derived campaign fingerprint — the
// same options must be passed here as to the campaign run — and raised
// fates are written back so `concat campaign --resume` and `concat
// stats` reflect the new score.  The report is a pure function of
// (component, store, seed, budget): byte-identical across --jobs.
int cmd_kill(const Options& options) {
    const serve::BuiltinTarget* target = single_class_target(options);
    if (target == nullptr) return 2;
    if (const int rc = check_assembly_flag(options, target)) return rc;
    if (!options.alive) {
        std::cerr << "concat kill: pass --alive (the pass targets the "
                     "store's surviving mutants)\n";
        return 2;
    }
    if (!options.store_path) {
        std::cerr << "concat kill: --resume FILE is required (the finished "
                     "campaign's result store)\n";
        return 2;
    }

    // Re-derive the campaign identity exactly as `concat campaign` did:
    // same suite, same probe derivation, same oracle/runner/prune
    // configuration — a mismatch means the store answers a different
    // campaign's question and must not be "raised".
    std::string error;
    const auto inputs =
        serve::make_builtin_inputs(builtin_config(options), &error);
    if (!inputs) {
        std::cerr << "concat kill: " << error << "\n";
        return 2;
    }
    const driver::TestSuite& suite = inputs->suite;
    const std::string fingerprint =
        campaign::CampaignScheduler(inputs->holder.component->registry(),
                                    inputs->options)
            .fingerprint(suite, inputs->mutants, inputs->probe_suite());

    std::string store_error;
    auto peek = campaign::peek_store(*options.store_path, &store_error);
    if (!peek) {
        std::cerr << "concat kill: " << store_error << "\n";
        return 2;
    }
    if (peek->fingerprint != fingerprint) {
        std::cerr << "concat kill: result store '" << *options.store_path
                  << "' belongs to a different campaign (store header "
                  << peek->fingerprint << ", expected " << fingerprint
                  << "); pass the same options as the campaign run\n";
        return 2;
    }

    std::size_t survivors = 0;
    for (const auto& record : peek->records) {
        if (record.fate == "alive") ++survivors;
    }
    if (survivors == 0) {
        return emit(options, "kill: " + suite.class_name +
                                 ": nothing to kill (no surviving mutants in " +
                                 *options.store_path + ")\n");
    }

    auto [context, kill_options] =
        kill_inputs(options, *inputs, obs::JsonlSink::OpenMode::Truncate);
    kill_options.corpus_dir = options.corpus_dir.value_or("");

    const kill::KillRun run =
        kill::kill_survivors(context, peek->records, kill_options);
    campaign::rewrite_store(*options.store_path, fingerprint, peek->records);

    std::ostringstream report;
    kill::render_kill_report(report, run, suite.class_name, kill_options);

    // Search-effort numbers go to stderr like campaign timing stats:
    // they are deterministic, but they are diagnostics, not results.
    std::size_t states = 0;
    std::size_t executed = 0;
    for (const auto& item : run.items) {
        states += item.stats.states_expanded;
        executed += item.stats.candidates_executed;
    }
    std::cerr << "kill stats: campaign=" << fingerprint
              << " survivors=" << run.survivors << " verified=" << run.verified
              << " states=" << states << " candidates=" << executed << "\n";

    return emit(options, report.str());
}

/// What `fuzz`, `run` and `shrink` drive: a registered single-class
/// target's component with its completions, its mutant population, and
/// runner options carrying --model.
struct Subject {
    serve::BuiltinComponent holder;
    const driver::CompletionRegistry* completions = nullptr;
    std::vector<mutation::Mutant> mutants;
    driver::RunnerOptions runner;

    [[nodiscard]] const core::SelfTestableComponent& component() const {
        return *holder.component;
    }
    [[nodiscard]] const std::string& class_name() const {
        return component().spec().class_name;
    }
};

std::optional<Subject> resolve_subject(const Options& options) {
    const serve::BuiltinTarget* target = single_class_target(options);
    if (target == nullptr) return std::nullopt;
    static const driver::CompletionRegistry kNoCompletions;
    Subject subject;
    subject.holder = target->make_component();
    subject.completions = subject.holder.completions != nullptr
                              ? subject.holder.completions
                              : &kNoCompletions;
    subject.mutants = target->mutants();
    subject.runner.obs = options.obs;
    if (options.model) {
        // Promotion turns a clean-run divergence into
        // Verdict::ModelDivergence: fuzzing treats it as a novel verdict
        // kind, dedupes findings by (model-divergence, method) and
        // shrinks while preserving it; `run` reports it per case.  A
        // component without a model must not silently run model-less.
        subject.runner.model = model::binding_for(subject.class_name());
        if (subject.runner.model == nullptr) {
            std::cerr << "concat " << options.command
                      << ": no reference model for '" << subject.class_name()
                      << "' (models exist for: "
                      << support::join(model::modeled_classes(), " ") << ")\n";
            return std::nullopt;
        }
        subject.runner.promote_divergence = true;
    }
    return subject;
}

/// Resolve --mutant against the enumerated mutants of `class_name`.
/// Returns nullptr when id is empty; exits via nullopt on unknown ids so
/// a typo cannot silently fuzz the pristine component.
std::optional<const mutation::Mutant*> resolve_mutant(
    const Options& options, const std::vector<mutation::Mutant>& mutants,
    const std::string& id) {
    if (id.empty()) return nullptr;
    for (const auto& m : mutants) {
        if (m.id() == id) return &m;
    }
    std::cerr << "concat " << options.command << ": unknown mutant '" << id
              << "'\n";
    return std::nullopt;
}

/// `body()`, run with `mutant` active (as is when it is null).
template <typename Body>
auto with_mutant(const mutation::Mutant* mutant, const Body& body) {
    if (mutant == nullptr) return body();
    const mutation::MutantActivation active(*mutant);
    return body();
}

// `concat fuzz <component>`: coverage-guided fuzzing of a registered
// single-class component (optionally with one mutant active, for seeded
// faults).  Findings are minimized by the shrinker and — with --corpus —
// persisted as replayable reproducers.  The stdout report is a pure
// function of (component, seed, iters, mutant): corpus filenames are
// printed without their directory so two same-seed runs into different
// corpus directories still byte-match (the CI seed-stability gate).
int cmd_fuzz(const Options& options) {
    const auto subject = resolve_subject(options);
    if (!subject) return 2;
    const std::string& class_name = subject->class_name();
    const driver::CompletionRegistry& completions = *subject->completions;
    const auto mutant =
        resolve_mutant(options, subject->mutants, options.mutant_id.value_or(""));
    if (!mutant) return 2;

    const driver::TestRunner runner(subject->component().registry(),
                                    subject->runner);
    const reflect::ClassBinding& binding =
        subject->component().registry().at(class_name);
    const auto run_in_process =
        [&](const driver::TestCase& tc) -> driver::TestResult {
        return with_mutant(*mutant, [&] { return runner.run_case(binding, tc); });
    };

    // --isolate: replay each case in a persistent forked worker.  The
    // case travels as a one-case concat-suite (the corpus transport:
    // serialize, reload, recomplete); the reply is the encoded result.
    // A worker death surfaces as a Crash verdict whose failed_method is
    // the termination kind, so a genuine SIGSEGV/hang/OOM dedupes as a
    // finding ("crash|crash-signal:11") instead of ending the run.
    std::optional<sandbox::SandboxRunner> isolated;
    if (options.isolate) {
        const sandbox::Job job = [&](const std::string& payload) -> std::string {
            std::istringstream in(payload);
            driver::TestSuite one = driver::load_suite(in);
            driver::recomplete_suite(one, completions, one.seed);
            if (one.cases.empty()) throw Error("sandbox: empty case payload");
            return sandbox::encode_result(run_in_process(one.cases.front()));
        };
        isolated.emplace(job, options.limits);
    }

    const fuzz::CaseRunner case_runner =
        [&](const driver::TestCase& tc) -> driver::TestResult {
        if (!isolated) return run_in_process(tc);
        driver::TestSuite one;
        one.class_name = class_name;
        one.seed = options.generator.seed;
        one.cases.push_back(tc);
        std::ostringstream out;
        driver::save_suite(out, one);
        const sandbox::TaskResult task = isolated->call(out.str());
        if (task.ok()) {
            if (auto decoded = sandbox::decode_result(task.payload)) {
                return *decoded;
            }
        }
        driver::TestResult result;
        result.case_id = tc.id;
        result.verdict = driver::Verdict::Crash;
        result.failed_method = task.ok() ? "worker-exit:-3" : task.outcome();
        result.message =
            "sandbox: worker terminated (" + result.failed_method + ")";
        return result;
    };

    fuzz::FuzzOptions fuzz_options;
    fuzz_options.seed = options.generator.seed;
    fuzz_options.iterations = options.iters;
    fuzz_options.generator = options.generator;
    fuzz_options.max_shrink_steps = options.max_shrink_steps;
    fuzz_options.mutant_id = options.mutant_id.value_or("");
    fuzz_options.obs = options.obs;

    fuzz::Fuzzer fuzzer(subject->component().spec(), fuzz_options);
    fuzzer.completions(&completions).case_runner(case_runner);
    const fuzz::FuzzResult result = fuzzer.run();

    // Persist reproducers before rendering so the report can carry each
    // finding's corpus filename.
    int rc = 0;
    std::vector<std::string> finding_lines;
    for (const auto& finding : result.findings) {
        std::ostringstream line;
        line << finding.key() << "  iter " << finding.iteration << "  "
             << finding.reproducer.calls.size() << " call(s)  shrink "
             << finding.shrink.steps << " step(s)";
        if (options.corpus_dir) {
            const std::uint64_t entry_seed = campaign::derive_item_seed(
                fuzz_options.seed, fuzz_options.mutant_id, finding.key());
            const std::string path = fuzz::persist_entry(
                *options.corpus_dir, finding.to_corpus_entry(class_name),
                &completions, fuzz::shows_verdict(case_runner, finding.verdict),
                entry_seed);
            if (!path.empty()) {
                line << "  -> " << std::filesystem::path(path).filename().string();
            } else {
                line << "  [NOT-REPRODUCIBLE]";
                rc = 1;
            }
        }
        finding_lines.push_back(line.str());
    }

    if (options.telemetry_path) {
        const auto u64 = [](std::size_t n) { return static_cast<std::uint64_t>(n); };
        obs::JsonlSink sink = obs::JsonlSink::to_file(*options.telemetry_path);
        sink.emit(obs::JsonObject{}
                      .set("event", "fuzz-start")
                      .set("class", class_name)
                      .set("seed", fuzz_options.seed)
                      .set("iters", u64(options.iters))
                      .set("mutant", fuzz_options.mutant_id));
        for (const auto& finding : result.findings) {
            sink.emit(obs::JsonObject{}
                          .set("event", "fuzz-finding")
                          .set("key", finding.key())
                          .set("verdict", driver::to_string(finding.verdict))
                          .set("method", finding.failed_method)
                          .set("iteration", u64(finding.iteration))
                          .set("shrink_steps", u64(finding.shrink.steps))
                          .set("calls", u64(finding.reproducer.calls.size())));
        }
        // One event per verdict kind — zero counts included, so a kind
        // that never fired (contract-not-enforced, setup-error) is
        // visibly zero in `concat stats`, not absent.
        for (const driver::Verdict v : driver::kAllVerdicts) {
            const std::string name = driver::to_string(v);
            const auto it = result.stats.verdict_counts.find(name);
            const std::uint64_t count =
                it == result.stats.verdict_counts.end() ? 0 : it->second;
            sink.emit(obs::JsonObject{}
                          .set("event", "fuzz-verdict")
                          .set("verdict", name)
                          .set("count", count));
        }
        obs::JsonObject end;
        end.set("event", "fuzz-end")
            .set("iterations", u64(result.stats.iterations))
            .set("executions", u64(result.stats.executions))
            .set("interesting", u64(result.stats.interesting))
            .set("population", u64(result.stats.population))
            .set("nodes", u64(result.stats.nodes_covered))
            .set("edges", u64(result.stats.edges_covered))
            .set("findings", u64(result.findings.size()));
        if (isolated) {
            const sandbox::PoolStats& sandbox_stats = isolated->stats();
            end.set("sandbox_spawns", u64(sandbox_stats.spawned))
                .set("sandbox_respawns", u64(sandbox_stats.respawned))
                .set("sandbox_kills", u64(sandbox_stats.kills));
        }
        sink.emit(end);
    }

    std::ostringstream report;
    report << "fuzz: " << class_name << ", seed " << fuzz_options.seed << ", "
           << options.iters << " iteration(s)";
    if (*mutant) report << ", mutant " << (*mutant)->id();
    report << "\n" << result.stats.render();
    if (finding_lines.empty()) {
        report << "no findings\n";
    } else {
        report << "findings:\n";
        for (const auto& line : finding_lines) report << "  " << line << "\n";
    }
    const int emit_rc = emit(options, report.str());
    return rc != 0 ? rc : emit_rc;
}

// `concat run <component>`: one plain execution of the generated
// suite — the smallest way to watch the component behave.  With
// --mutant the run happens under that seeded fault; with --model the
// lockstep reference model runs alongside and a divergence on an
// otherwise-passing case is promoted to a model-divergence verdict with
// the first divergent call in the message.  Exit 0 iff every case
// passed, so `concat run <c> --model` doubles as a conformance gate and
// `concat run <c> --mutant M --model` as a single-mutant demonstrator.
int cmd_run(const Options& options) {
    const auto subject = resolve_subject(options);
    if (!subject) return 2;
    const std::string& class_name = subject->class_name();
    const auto mutant =
        resolve_mutant(options, subject->mutants, options.mutant_id.value_or(""));
    if (!mutant) return 2;

    const driver::TestRunner runner(subject->component().registry(),
                                    subject->runner);
    const driver::TestSuite suite =
        subject->component().generate_tests(options.generator);
    const driver::SuiteResult result =
        with_mutant(*mutant, [&] { return runner.run(suite); });

    std::ostringstream report;
    report << "run: " << class_name << ", " << suite.size() << " case(s), seed "
           << options.generator.seed;
    if (*mutant) report << ", mutant " << (*mutant)->id();
    if (options.model) report << ", model oracle";
    report << "\n";

    std::size_t failures = 0;
    for (const auto& r : result.results) {
        report << "  " << r.case_id << "  " << driver::to_string(r.verdict);
        if (r.verdict != driver::Verdict::Pass) {
            ++failures;
            if (!r.failed_method.empty()) {
                report << "  [" << r.failed_method << "]";
            }
            if (!r.message.empty()) report << "  " << r.message;
        }
        report << "\n";
    }
    report << "verdicts:";
    for (const driver::Verdict v : driver::kAllVerdicts) {
        report << "  " << driver::to_string(v) << "=" << result.count(v);
    }
    report << "\n";

    const int emit_rc = emit(options, report.str());
    if (failures != 0) return 1;
    return emit_rc;
}

// `concat shrink <component> --case FILE`: reload one corpus
// entry, verify it still passes its replay rule (a kill entry must still
// kill its mutant for its recorded reason; kill/reproduce.h), re-shrink
// it under that rule and the given budget, and write the minimized entry
// back (--corpus DIR for the canonical filename, else -o/stdout).  Exit 1
// when the entry no longer replays — a stale entry is a signal, not noise.
int cmd_shrink(const Options& options) {
    if (!options.case_path) {
        std::cerr << "concat shrink: --case is required\n";
        return 2;
    }
    const auto subject = resolve_subject(options);
    if (!subject) return 2;
    const std::string& class_name = subject->class_name();

    fuzz::CorpusEntry entry = fuzz::load_entry_file(*options.case_path);
    if (entry.suite.class_name != class_name) {
        std::cerr << "concat shrink: entry is for class '"
                  << entry.suite.class_name << "', component is '" << class_name
                  << "'\n";
        return 2;
    }

    // --mutant overrides the recorded mutant (e.g. replaying a component
    // fault under a candidate fix's mutant id).
    const auto mutant = resolve_mutant(
        options, subject->mutants, options.mutant_id.value_or(entry.mutant_id));
    if (!mutant) return 2;

    driver::recomplete_suite(entry.suite, *subject->completions, entry.suite.seed);

    const tspec::ComponentSpec& spec = subject->component().spec();
    kill::KillContext context;
    context.spec = &spec;
    context.registry = &subject->component().registry();
    context.completions = subject->completions;
    kill::KillOptions shrink;
    shrink.search.runner = subject->runner;
    shrink.search.runner.model = model::binding_for(class_name);
    shrink.corpus_dir = options.corpus_dir.value_or("");
    shrink.max_shrink_steps = options.max_shrink_steps;
    shrink.obs = options.obs;
    if (!kill::replay_rule(context, shrink.search.runner, *mutant,
                           entry)(entry.reproducer())) {
        std::cerr << "concat shrink: the entry no longer replays (recorded "
                  << driver::to_string(entry.verdict);
        if (!entry.kill_reason.empty()) {
            std::cerr << ", kill reason " << entry.kill_reason;
        }
        std::cerr << ")\n";
        return 1;
    }

    const std::size_t calls = entry.reproducer().calls.size();
    const std::uint64_t seed = entry.suite.seed;
    const kill::Reproduction shrunk = kill::reproduce(
        context, shrink, spec.build_tfm(), *mutant, std::move(entry), seed);

    std::cerr << "shrink: " << class_name << "  " << calls << " -> "
              << shrunk.shrink.minimized.calls.size() << " call(s), "
              << shrunk.shrink.steps << " step(s), "
              << shrunk.shrink.sequence_removals << " removal(s), "
              << shrunk.shrink.value_reductions << " value reduction(s)\n";

    if (options.corpus_dir) {
        if (shrunk.path.empty()) {
            std::cerr << "concat shrink: minimized entry did not replay after "
                         "persistence round-trip\n";
            return 1;
        }
        std::cout << "wrote " << shrunk.path << "\n";
        // Corpus filenames are content-hashed, so a shrink that changed
        // the case lands under a new name; drop the superseded input
        // entry rather than accumulating duplicate reproducers for the
        // same finding.
        std::error_code ec;
        const bool same =
            std::filesystem::equivalent(*options.case_path, shrunk.path, ec);
        if (!ec && !same) {
            if (std::filesystem::remove(*options.case_path, ec) && !ec) {
                std::cerr << "removed superseded " << *options.case_path << "\n";
            }
        }
        return 0;
    }
    std::ostringstream out;
    fuzz::save_entry(out, shrunk.entry);
    return emit(options, out.str());
}

// `concat stats TELEMETRY.jsonl [MORE.jsonl...]`: offline aggregation
// of campaign telemetry stream(s) (docs/FORMATS.md §5) into the summary
// a profiler wants first: verdict/fate breakdown, kill-reason
// histogram, the slowest items, and per-worker utilization.  Several
// files — e.g. a dispatch coordinator's stream plus each worker
// daemon's — aggregate into one summary, items deduplicated by index.
int cmd_stats(const Options& options) {
    if (options.follow) {
        // Live view over ONE growing file: poll its tail, re-render a
        // compact snapshot after each batch of new lines, stop once the
        // stream's campaign-end arrives (or on Ctrl-C, like tail -f).
        // The torn-tail holdback in TelemetryTail makes a writer caught
        // mid-line invisible here.
        if (!options.extra_inputs.empty()) {
            std::cerr << "concat stats: --follow takes exactly one file\n";
            return 2;
        }
        using FollowClock = std::chrono::steady_clock;
        const auto t0 = FollowClock::now();
        obs::TelemetryTail tail(options.tspec_path);
        obs::TelemetryStats stats;
        auto render = [&] {
            stats.sort_items();
            const double elapsed_s =
                std::chrono::duration<double>(FollowClock::now() - t0).count();
            stats.render_follow(std::cout, elapsed_s);
            std::cout << std::flush;
        };
        for (;;) {
            const std::size_t fresh = tail.poll(stats);
            if (fresh > 0) render();
            if (stats.have_summary) break;
            std::this_thread::sleep_for(std::chrono::milliseconds(200));
        }
        return 0;
    }
    std::vector<std::string> paths;
    paths.push_back(options.tspec_path);
    paths.insert(paths.end(), options.extra_inputs.begin(),
                 options.extra_inputs.end());
    const obs::TelemetryStats stats = obs::TelemetryStats::from_files(paths);
    std::ostringstream out;
    if (options.json_stats) {
        stats.write_json(out, options.top);
    } else {
        stats.render(out, options.top);
    }
    return emit(options, out.str());
}

// `concat serve [--listen PORT] [--once]`: the worker daemon of the
// campaign service (docs/FORMATS.md §10).  Binds, announces the bound
// port on stdout (so scripts using --listen 0 can read the ephemeral
// choice before connecting), then serves coordinator sessions until
// stopped — or exactly one under --once, the CI-gate shape.  The daemon
// carries no campaign flags: the coordinator's Hello handshake is the
// single source of campaign configuration, cross-checked by fingerprint.
int cmd_serve(const Options& options) {
    std::optional<obs::JsonlSink> sink;
    if (options.telemetry_path) {
        sink = obs::JsonlSink::to_file(*options.telemetry_path);
    }
    serve::ServeOptions serve_options = options.serve;
    serve_options.obs = options.obs;
    if (sink) {
        serve_options.telemetry = [&sink](const obs::JsonObject& event) {
            sink->emit(event);
        };
    }
    serve::WorkerDaemon daemon(serve::builtin_session_factory(),
                               std::move(serve_options));
    const std::uint16_t port = daemon.bind();
    std::cout << "listening on port " << port << "\n" << std::flush;
    daemon.serve();
    std::cerr << "serve stats: sessions=" << daemon.sessions() << "\n";
    return 0;
}

/// Write the --trace-out / --metrics-out artifacts collected during the
/// command.  Failures are reported but only turn a successful run into
/// a failure (a failed command keeps its own exit code).
int flush_observability(const Options& options) {
    const auto write = [](const std::optional<std::string>& path, const char* what,
                          const auto& writer) {
        if (!path) return 0;
        std::ofstream out(*path);
        if (!out) {
            std::cerr << "concat: cannot write " << what << " file: " << *path << "\n";
            return 1;
        }
        writer(out);
        return 0;
    };
    const obs::Context& obs = options.obs;
    return write(options.trace_path, "trace",
                 [&](std::ostream& out) { obs.tracer.write_chrome_trace(out); }) |
           write(options.metrics_path, "metrics", [&](std::ostream& out) {
               if (options.metrics_path->ends_with(".json")) {
                   obs.metrics.write_json(out);
               } else {
                   obs.metrics.write_text(out);
               }
           });
}

int cmd_print(const Options& options, const tspec::ComponentSpec& spec) {
    return emit(options, tspec::print_tspec(spec));
}

int cmd_dot(const Options& options, const tspec::ComponentSpec& spec) {
    spec.ensure_valid();
    return emit(options, spec.build_tfm().to_dot());
}

/// A t-spec command run on the operand's parsed t-spec.
template <int (*Run)(const Options&, const tspec::ComponentSpec&)>
int with_tspec(const Options& options) {
    return Run(options, tspec::parse_tspec(read_file(options.tspec_path)));
}

/// One row of the command table: the command, its operand and its
/// handler.  Every command takes the flags of kFlags that name it.
struct Command {
    const char* name;
    const char* operand;
    int (*run)(const Options&);
    const char* help;
};

const Command kCommands[] = {
    {"validate", "TSPEC", with_tspec<cmd_validate>,
     "parse and semantically check a t-spec"},
    {"describe", "TSPEC", with_tspec<cmd_describe>,
     "human-readable summary of the specification"},
    {"print", "TSPEC", with_tspec<cmd_print>,
     "normalized t-spec (round-trip through the parser)"},
    {"dot", "TSPEC", with_tspec<cmd_dot>, "Graphviz DOT of the transaction flow model"},
    {"transactions", "TSPEC", with_tspec<cmd_transactions>,
     "enumerate transactions (birth -> death paths)"},
    {"assemble", "ASSEMBLY.tspec", cmd_assemble,
     "synchronous product of an assembly; default output: construction stats and "
     "validation"},
    {"coverage", "TSPEC", with_tspec<cmd_coverage>,
     "node/link coverage of the selected criterion"},
    {"suite", "TSPEC", with_tspec<cmd_suite>,
     "generate a test suite (concat-suite text format)"},
    {"gen", "TSPEC", with_tspec<cmd_gen>, "generate C++ driver source (paper Figs. 6-7)"},
    {"replan", "OLD.tspec", with_tspec<cmd_replan>,
     "classify a frozen suite against a new release"},
    {"campaign", "COMPONENT", cmd_campaign,
     "parallel mutation campaign over a registered component (coblist, sortable, wallet, "
     "audited-wallet, shop)"},
    {"kill", "COMPONENT", cmd_kill,
     "synthesize killers for a finished campaign's surviving mutants (bounded "
     "product-state search; every killer is execution-verified and shrunk)"},
    {"fuzz", "COMPONENT", cmd_fuzz,
     "coverage-guided transaction fuzzing of a single-class component"},
    {"run", "COMPONENT", cmd_run, "execute the generated suite once and report verdicts"},
    {"shrink", "COMPONENT", cmd_shrink, "re-shrink / verify one corpus entry"},
    {"serve", "", cmd_serve, "campaign worker daemon (docs/FORMATS.md §10)"},
    {"dispatch", "COMPONENT", cmd_campaign, "shard a campaign across serve daemons"},
    {"stats", "TELEMETRY.jsonl...", cmd_stats, "summarize campaign telemetry stream(s)"},
};

/// One usage entry: `head` padded to the text column, then `text`
/// word-wrapped under it.
void put_entry(std::ostream& os, std::string head, const std::string& text) {
    constexpr std::size_t kColumn = 26;
    constexpr std::size_t kWidth = 79;
    if (head.size() >= kColumn) {
        os << head << "\n";
        head.clear();
    }
    std::string line = head + std::string(kColumn - head.size(), ' ');
    std::istringstream words(text);
    bool first = true;
    for (std::string word; words >> word; first = false) {
        if (!first && line.size() + 1 + word.size() > kWidth) {
            os << line << "\n";
            line = std::string(kColumn, ' ');
            first = true;
        }
        line += (first ? "" : " ") + word;
    }
    os << line << "\n";
}

int usage(std::ostream& os) {
    os << "usage: concat <command> <operand> [options]\ncommands:\n";
    for (const Command& command : kCommands) {
        put_entry(os, std::string("  ") + command.name + " " + command.operand,
                  command.help);
    }
    os << "options, with the commands that take each one:\n";
    for (const Flag& flag : kFlags) {
        const std::string commands = std::strcmp(flag.commands, "*") == 0
                                         ? "any command"
                                         : flag.commands;
        put_entry(os,
                  std::string("  ") + flag.name +
                      (flag.kind == Kind::Switch ? "" : " ") + flag.metavar,
                  std::string(flag.help) + " [" + commands + "]");
    }
    return 2;
}

std::optional<Options> parse_args(int argc, char** argv) {
    if (argc < 2) return std::nullopt;
    Options out;
    out.command = argv[1];
    if (find_row(kCommands, out.command) == nullptr) {
        std::cerr << "concat: unknown command '" << out.command << "'\n";
        return std::nullopt;
    }
    // `serve` takes no positional operand — the campaign config arrives
    // in the coordinator's handshake — so argv[2] may already be a flag
    // (or absent: an ephemeral-port daemon).  `stats` flags may precede
    // the file (`stats --follow F`): the loop collects every positional
    // into extra_inputs and the first is promoted to the primary file.
    int first = 2;
    if (out.command != "serve" && out.command != "stats") {
        if (argc < 3) return std::nullopt;
        out.tspec_path = argv[2];
        first = 3;
    }

    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        if (!arg.empty() && arg[0] != '-') {
            // `stats` aggregates any number of telemetry files; no
            // other command takes extra positional operands.
            if (out.command == "stats") {
                out.extra_inputs.push_back(arg);
                continue;
            }
            std::cerr << "concat " << out.command << ": unexpected operand '"
                      << arg << "'\n";
            return std::nullopt;
        }
        const Flag* flag = find_row(kFlags, arg);
        if (flag == nullptr || !accepts(*flag, out.command)) {
            std::cerr << "concat " << out.command << ": unknown option '" << arg
                      << "'\n";
            return std::nullopt;
        }
        Value value;
        if (flag->kind != Kind::Switch) {
            if (i + 1 >= argc) return std::nullopt;
            value.text = argv[++i];
        }
        if (!read_value(*flag, value)) return std::nullopt;
        flag->set(out, value);
    }
    if (out.command == "stats") {
        if (out.extra_inputs.empty()) return std::nullopt;  // no file given
        out.tspec_path = out.extra_inputs.front();
        out.extra_inputs.erase(out.extra_inputs.begin());
    }
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    // The example targets (wallet, audited-wallet, shop) join the pre-registered mfc
    // ones before any command resolves a component name — including a
    // serve daemon's handshake-time lookup.
    stc::examples::register_example_targets();

    auto options = parse_args(argc, argv);
    if (!options) return usage(std::cerr);

    // The observability context exists exactly when an output was
    // requested; otherwise every instrument in the pipeline stays on
    // its no-op fast path.
    if (options->trace_path) options->obs.tracer = obs::Tracer::make();
    if (options->metrics_path) options->obs.metrics = obs::Metrics::make();
    options->generator.obs = options->obs;

    int rc;
    try {
        rc = find_row(kCommands, options->command)->run(*options);
    } catch (const stc::Error& e) {
        std::cerr << "concat: " << e.what() << "\n";
        rc = 1;
    }
    const int flush_rc = flush_observability(*options);
    return rc == 0 ? flush_rc : rc;
}

// Fuzz driver for the readers of persisted and received artifacts:
// corpus entries (fuzz::load_entry) and their kill reasons
// (kill::entry_reason), concat-suite files (driver::load_suite), golden
// records (oracle::load_golden), result stores (campaign::peek_store),
// dispatch Hello payloads (serve::parse_hello) and growing telemetry
// files (obs::TelemetryTail, the `stats --follow` reader).  The seeds are
// the checked-in corpus/*.suite entries, the suite block and the `reason`
// value each one embeds, a golden record saved from a CObList baseline
// run, the result store and the --shrink-corpus telemetry of a short
// CObList campaign, and the Hello that campaign's dispatch would send;
// each iteration byte-mutates one of them — overwrites, inserts,
// deletes, truncation — favouring the bytes the formats give meaning to
// ('%', '|', ':', digits, line breaks).  The telemetry reaches the tail
// reader in random-sized appends, so lines arrive torn.
//
// The invariant: a reader returns a value or throws stc::Error.  Any
// other exception (std::invalid_argument from a number parse, say) is a
// failure, because it escapes the CLI's error handling and aborts it.
//
// `reader_fuzz --smoke` is the CI entry (ctest): a seconds-scale budget.
// `reader_fuzz --iters N [--seed S]` is the long-haul form.
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "stc/campaign/result_store.h"
#include "stc/campaign/scheduler.h"
#include "stc/core/self_testable.h"
#include "stc/driver/runner.h"
#include "stc/driver/suite_io.h"
#include "stc/fuzz/corpus.h"
#include "stc/kill/reproduce.h"
#include "stc/mfc/component.h"
#include "stc/obs/stats.h"
#include "stc/oracle/golden_io.h"
#include "stc/serve/builtin_host.h"
#include "stc/support/error.h"
#include "stc/support/rng.h"
#include "test_paths.h"

namespace {

using stc::support::Pcg32;

struct Seed {
    const char* reader;
    std::string text;
    std::function<void(std::istream&)> load;
};

std::string slurp(const std::string& path) {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/// The result store of an 8-mutant CObList campaign, read back through
/// a file at `store_path`; its telemetry with the --shrink-corpus
/// post-pass events, tailed from a file at `store_path`.tail; and the
/// Hello that campaign's dispatch sends.
void add_campaign_seeds(std::vector<Seed>& seeds, const std::string& store_path) {
    stc::serve::BuiltinCampaignConfig config;
    config.component = "coblist";
    std::string error;
    auto inputs = stc::serve::make_builtin_inputs(config, &error);
    if (!inputs) throw stc::Error(error);
    inputs->mutants.resize(8);
    stc::campaign::CampaignOptions options = inputs->options;
    options.store_path = store_path;
    options.telemetry_path = store_path + ".telemetry";
    std::remove(store_path.c_str());
    std::remove(options.telemetry_path.c_str());
    const stc::campaign::CampaignResult result =
        stc::campaign::CampaignScheduler(inputs->holder.component->registry(), options)
            .run(inputs->suite, inputs->mutants, inputs->probe_suite());
    const std::string& fingerprint = result.fingerprint;

    stc::kill::KillContext context;
    context.spec = &inputs->holder.component->spec();
    context.registry = &inputs->holder.component->registry();
    context.completions = inputs->holder.completions;
    context.mutants = &inputs->mutants;
    stc::kill::KillOptions pass;
    pass.seed = options.seed;
    pass.corpus_dir = store_path + ".corpus";
    pass.search.runner = options.engine.runner;
    pass.telemetry = stc::obs::JsonlSink::to_file(
        options.telemetry_path, stc::obs::JsonlSink::OpenMode::Append);
    if (stc::kill::shrink_campaign_kills(context, inputs->suite, result, pass) == 0) {
        throw stc::Error("the seed campaign persisted no reproducer");
    }
    pass.telemetry = {};
    std::filesystem::remove_all(pass.corpus_dir);
    const std::string tail_path = store_path + ".tail";
    seeds.push_back({"TelemetryTail::poll", slurp(options.telemetry_path),
                     [tail_path](std::istream& in) {
                         std::stringstream all;
                         all << in.rdbuf();
                         const std::string text = all.str();
                         std::ofstream out(tail_path, std::ios::binary | std::ios::trunc);
                         stc::obs::TelemetryTail tail(tail_path);
                         stc::obs::TelemetryStats stats;
                         Pcg32 cuts(text.size());
                         for (std::size_t at = 0; at < text.size();) {
                             const std::size_t n = 1 + cuts.index(160);
                             out.write(text.data() + at,
                                       static_cast<std::streamsize>(
                                           std::min(n, text.size() - at)));
                             out.flush();
                             (void)tail.poll(stats);
                             at += n;
                         }
                         stats.sort_items();
                         std::ostringstream rendered;
                         stats.render(rendered, 10);
                         stats.render_follow(rendered, 1.0);
                     }});
    std::remove(options.telemetry_path.c_str());

    seeds.push_back({"peek_store", slurp(store_path), [store_path](std::istream& in) {
                         {
                             std::ofstream out(store_path, std::ios::binary);
                             out << in.rdbuf();
                         }
                         std::string why;
                         if (!stc::campaign::peek_store(store_path, &why)) {
                             throw stc::Error(why);
                         }
                     }});
    seeds.push_back({"parse_hello", stc::serve::make_hello(config, fingerprint).to_line(),
                     [](std::istream& in) {
                         std::stringstream text;
                         text << in.rdbuf();
                         const auto hello = stc::obs::JsonObject::parse(text.str());
                         std::string why = "not a JSON object";
                         if (!hello || !stc::serve::parse_hello(*hello, &why)) {
                             throw stc::Error(why);
                         }
                     }});
}

std::vector<Seed> load_seeds(const std::string& store_path) {
    const auto load_entry = [](std::istream& in) { (void)stc::fuzz::load_entry(in); };
    const auto load_suite = [](std::istream& in) { (void)stc::driver::load_suite(in); };
    std::vector<Seed> seeds;
    for (const std::string& path :
         stc::fuzz::list_corpus(std::string(STC_SOURCE_DIR) + "/corpus")) {
        const std::string entry = slurp(path);
        seeds.push_back({"load_entry", entry, load_entry});
        seeds.push_back(
            {"load_suite", entry.substr(entry.find("concat-suite 1")), load_suite});
        // The entry with its `reason` value mutated, through the rule's
        // reason parsing.
        const std::size_t reason = entry.find("\nreason ");
        if (reason == std::string::npos) continue;
        const std::size_t value = reason + 8;
        const std::size_t end = entry.find('\n', value);
        seeds.push_back({"entry_reason", entry.substr(value, end - value),
                         [head = entry.substr(0, value),
                          tail = entry.substr(end)](std::istream& in) {
                             std::stringstream text;
                             text << head << in.rdbuf();
                             text.clear();
                             text << tail;
                             (void)stc::kill::entry_reason(stc::fuzz::load_entry(text));
                         }});
    }

    stc::mfc::ElementPool pool;
    const stc::driver::CompletionRegistry completions =
        stc::mfc::make_completions(pool);
    stc::core::SelfTestableComponent component(stc::mfc::coblist_spec(),
                                               stc::mfc::coblist_binding());
    component.set_completions(completions);
    const stc::driver::TestRunner runner(component.registry());
    std::ostringstream golden;
    stc::oracle::save_golden(
        golden, stc::oracle::GoldenRecord::from(
                    runner.run(component.generate_tests(stc::driver::GeneratorOptions{}))));
    seeds.push_back({"load_golden", golden.str(), [](std::istream& in) {
                         (void)stc::oracle::load_golden(in);
                     }});
    add_campaign_seeds(seeds, store_path);
    return seeds;
}

char interesting_byte(Pcg32& rng) {
    static const std::string kMeaningful = "%|:,-+.e\n 0123456789azIRSEP";
    if (rng.chance(0.2)) return static_cast<char>(rng.index(256));
    return kMeaningful[rng.index(kMeaningful.size())];
}

std::string mutate(Pcg32& rng, std::string text) {
    const std::size_t edits = 1 + rng.index(4);
    for (std::size_t e = 0; e < edits && !text.empty(); ++e) {
        const std::size_t at = rng.index(text.size());
        switch (rng.index(4)) {
            case 0: text[at] = interesting_byte(rng); break;
            case 1: text.insert(at, 1 + rng.index(3), interesting_byte(rng)); break;
            case 2: text.erase(at, 1 + rng.index(8)); break;
            default: text.resize(at); break;
        }
    }
    return text;
}

/// "" when `load` returned or threw stc::Error; else what escaped.
std::string escaped(const Seed& seed, const std::string& text) {
    std::istringstream in(text);
    try {
        seed.load(in);
    } catch (const stc::Error&) {
    } catch (const std::exception& e) {
        return e.what();
    } catch (...) {
        return "non-std exception";
    }
    return "";
}

}  // namespace

int main(int argc, char** argv) {
    std::uint64_t iterations = 20000;
    std::uint64_t seed = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            iterations = 2000;
        } else if (arg == "--iters" && i + 1 < argc) {
            iterations = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seed" && i + 1 < argc) {
            seed = std::strtoull(argv[++i], nullptr, 10);
        } else {
            std::cerr << "usage: reader_fuzz [--smoke] [--iters N] [--seed S]\n";
            return 2;
        }
    }

    const std::string store_path =
        "/tmp/stc_reader_fuzz_" + std::to_string(getpid()) + ".jsonl";
    const std::vector<Seed> seeds = load_seeds(store_path);
    int failures = 0;
    for (const Seed& s : seeds) {
        std::istringstream in(s.text);
        try {
            s.load(in);
        } catch (const std::exception& e) {
            std::cerr << "reader_fuzz: pristine " << s.reader
                      << " input rejected: " << e.what() << "\n";
            ++failures;
        }
    }

    Pcg32 rng(seed);
    for (std::uint64_t i = 0; i < iterations && failures <= 10; ++i) {
        const Seed& s = seeds[rng.index(seeds.size())];
        const std::string text = mutate(rng, s.text);
        const std::string what = escaped(s, text);
        if (what.empty()) continue;
        std::cerr << "reader_fuzz: FAILED at iteration " << i << ": " << s.reader
                  << " let '" << what << "' escape on:\n"
                  << text << "\n";
        ++failures;
    }

    std::remove(store_path.c_str());
    std::remove((store_path + ".tail").c_str());
    if (failures != 0) {
        std::cerr << "reader_fuzz: " << failures << " failure(s)\n";
        return 1;
    }
    std::cout << "reader_fuzz: " << iterations << " iteration(s) over "
              << seeds.size() << " seed(s), seed " << seed
              << ", only stc::Error escaped\n";
    return 0;
}

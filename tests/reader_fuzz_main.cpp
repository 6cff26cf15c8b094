// Fuzz driver for the text readers of persisted artifacts: corpus
// entries (fuzz::load_entry), concat-suite files (driver::load_suite)
// and golden records (oracle::load_golden).  The seeds are the
// checked-in corpus/*.suite entries, the suite block each one embeds,
// and a golden record saved from a CObList baseline run; each iteration
// byte-mutates one of them — overwrites, inserts, deletes, truncation —
// favouring the bytes the formats give meaning to ('%', '|', ':', digits,
// line breaks).
//
// The invariant: a reader returns a value or throws stc::Error.  Any
// other exception (std::invalid_argument from a number parse, say) is a
// failure, because it escapes the CLI's error handling and aborts it.
//
// `reader_fuzz --smoke` is the CI entry (ctest): a seconds-scale budget.
// `reader_fuzz --iters N [--seed S]` is the long-haul form.
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "stc/core/self_testable.h"
#include "stc/driver/runner.h"
#include "stc/driver/suite_io.h"
#include "stc/fuzz/corpus.h"
#include "stc/mfc/component.h"
#include "stc/oracle/golden_io.h"
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

std::vector<Seed> load_seeds() {
    const auto load_entry = [](std::istream& in) { (void)stc::fuzz::load_entry(in); };
    const auto load_suite = [](std::istream& in) { (void)stc::driver::load_suite(in); };
    std::vector<Seed> seeds;
    for (const std::string& path :
         stc::fuzz::list_corpus(std::string(STC_SOURCE_DIR) + "/corpus")) {
        const std::string entry = slurp(path);
        seeds.push_back({"load_entry", entry, load_entry});
        seeds.push_back(
            {"load_suite", entry.substr(entry.find("concat-suite 1")), load_suite});
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

    const std::vector<Seed> seeds = load_seeds();
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

    if (failures != 0) {
        std::cerr << "reader_fuzz: " << failures << " failure(s)\n";
        return 1;
    }
    std::cout << "reader_fuzz: " << iterations << " iteration(s) over "
              << seeds.size() << " seed(s), seed " << seed
              << ", only stc::Error escaped\n";
    return 0;
}

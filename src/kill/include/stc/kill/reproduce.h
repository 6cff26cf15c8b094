// Kill reproducers: the one replay rule of the regression corpus, and the
// one path that turns a killing test case into a corpus entry.
//
// The paper counts a mutant as killed when its run crashes, raises an
// assertion the original did not, or gives output that differs from the
// original's (§4).  A stored reproducer of a kill is only worth keeping
// while it still shows that kill, so every corpus replay check — `concat
// kill`, `concat campaign --shrink-corpus`, `concat shrink` and the
// checked-in corpus test — goes through replay_rule:
//
//   - kill entries (a `reason` line): a case reproduces kill (M, R) iff
//     its unmutated run passes and its run with M active classifies to R
//     against that unmutated run (oracle::classify on the single case),
//     with the class's reference model attached exactly when R is
//     model-divergence.  The recorded verdict is the mutated run's
//     verdict with divergence promoted.
//   - component-fault entries (no `reason`): the run, with M active when
//     the entry names one, shows the recorded verdict
//     (fuzz::shows_verdict).
//
// reproduce() shrinks a case under that rule and persists it only when
// the persisted form (reloaded and recompleted from its seed) still
// passes it.  Shrinking and persistence consume no randomness, so a
// reproducer is a pure function of (case, mutant, reason, seed).
#pragma once

#include <cstdint>
#include <string>

#include "stc/campaign/scheduler.h"
#include "stc/fuzz/fuzzer.h"
#include "stc/kill/kill.h"

namespace stc::kill {

/// The kill reason an entry records: None without a `reason` line;
/// stc::Error on text that names no kill reason.
[[nodiscard]] oracle::KillReason entry_reason(const fuzz::CorpusEntry& entry);

/// The replay rule for `entry` on `context`'s component (`mutants`
/// unused), with `mutant` active (null = none; a kill entry requires one
/// and throws stc::Error without it).  `runner` is the base runner;
/// its `model` is the class's reference model (null when it has none),
/// which the rule attaches only where it says so, promoting divergence.
[[nodiscard]] fuzz::Predicate replay_rule(const KillContext& context,
                                          const driver::RunnerOptions& runner,
                                          const mutation::Mutant* mutant,
                                          const fuzz::CorpusEntry& entry);

/// One shrunk reproducer.
struct Reproduction {
    fuzz::CorpusEntry entry;   ///< minimized, with its recorded verdict
    fuzz::ShrinkResult shrink;
    std::string path;          ///< file written ("" = not persisted)
};

/// Shrink `entry`'s case on `graph` under its replay rule (base runner
/// `options.search.runner`, budget `options.max_shrink_steps`); a kill
/// entry then records the verdict of the shrunk case.  With a non-empty
/// `options.corpus_dir` the entry is persisted there
/// (fuzz::persist_entry, seed `entry_seed`) when its persisted form
/// replays.
[[nodiscard]] Reproduction reproduce(const KillContext& context,
                                     const KillOptions& options,
                                     const tfm::Graph& graph,
                                     const mutation::Mutant* mutant,
                                     fuzz::CorpusEntry entry,
                                     std::uint64_t entry_seed);

/// The `concat campaign --shrink-corpus` post-pass over a finished
/// campaign of `suite` over `context.mutants`: for every killed outcome
/// (resumed ones included), the first killing case of `suite` in order —
/// classified against `result.run.golden`, run as the campaign ran it
/// (`options.search.runner`) — is reproduced on the TFM graph, seeded
/// with its item's seed (`options.seed` is the campaign seed).  Runs on
/// `options.jobs` threads; the corpus is a pure function of the item.
/// Emits one `item-shrunk` event per persisted reproducer, in item
/// order, to `options.telemetry` (docs/FORMATS.md §5).  Returns the
/// number of reproducers persisted.
std::size_t shrink_campaign_kills(const KillContext& context,
                                  const driver::TestSuite& suite,
                                  const campaign::CampaignResult& result,
                                  const KillOptions& options);

}  // namespace stc::kill

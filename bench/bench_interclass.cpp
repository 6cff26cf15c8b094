// Interclass-testing ablation — quantifies the motivation of the
// paper's §6 extension: faults in the *interaction* between classes
// (here: Wallet's write-through to its audit Ledger) under two testing
// strategies:
//
//   intraclass — Wallet tested alone (§3's single-class methodology);
//                the Ledger parameter is a tester completion the suite
//                never observes.
//   interclass — the AuditedWallet system suite: the same call shapes,
//                but the Ledger is a first-class role whose Reporter
//                output is part of the observable state.
//
// Interface mutants are seeded into Wallet::Deposit / Wallet::Withdraw.
// The write-through sites (the ledger pointer and the booked amounts)
// are only observable through the collaborator.
//
// Both suites run through the same MutationEngine::run: the system is
// lowered to one class (interclass::lower).
#include "bench_util.h"
#include "wallet_component.h"

int main() {
    using namespace stc;
    bench::banner("Interclass ablation — collaboration faults in Wallet");

    const auto mutants =
        mutation::enumerate_mutants(examples::wallet_descriptors(), "Wallet");
    std::cout << "\nmutants in Wallet::Deposit / Wallet::Withdraw: "
              << mutants.size() << "\n\n";

    // --- intraclass: Wallet alone -------------------------------------------
    reflect::Registry registry;
    examples::register_wallet_classes(registry);
    examples::LedgerPool ledgers;
    const auto completions = ledgers.completions();
    driver::DriverGenerator intraclass_gen(examples::wallet_intraclass_spec());
    intraclass_gen.completions(&completions);
    const auto intraclass_suite = intraclass_gen.generate();
    const auto intraclass_run =
        mutation::MutationEngine(registry).run(intraclass_suite, mutants);

    // --- interclass: the AuditedWallet system --------------------------------
    interclass::LoweredSystem system = examples::audited_wallet();
    const auto system_suite = driver::DriverGenerator(system.spec).generate();
    reflect::Registry system_registry;
    system_registry.add(std::move(system.binding));
    const auto interclass_run =
        mutation::MutationEngine(system_registry).run(system_suite, mutants);

    support::TextTable table(
        {"Strategy", "test cases", "#killed", "alive", "Score"});
    table.set_align(0, support::Align::Left);
    table.add_row({"intraclass (Wallet alone)",
                   std::to_string(intraclass_suite.size()),
                   std::to_string(intraclass_run.killed()),
                   std::to_string(intraclass_run.total() -
                                  intraclass_run.killed() -
                                  intraclass_run.equivalent()),
                   support::percent(intraclass_run.score())});
    table.add_row({"interclass (system suite)",
                   std::to_string(system_suite.size()),
                   std::to_string(interclass_run.killed()),
                   std::to_string(interclass_run.total() -
                                  interclass_run.killed() -
                                  interclass_run.equivalent()),
                   support::percent(interclass_run.score())});
    table.render(std::cout);

    // Which mutants does only the interclass suite kill?
    std::cout << "\nmutants killed by the interclass suite but missed "
                 "intraclass:\n";
    std::size_t interaction_only = 0;
    for (std::size_t i = 0; i < mutants.size(); ++i) {
        const bool intra = intraclass_run.outcomes[i].fate ==
                           mutation::MutantFate::Killed;
        const bool inter = interclass_run.outcomes[i].fate ==
                           mutation::MutantFate::Killed;
        if (inter && !intra) {
            ++interaction_only;
            if (interaction_only <= 8) std::cout << "  " << mutants[i].id() << "\n";
        }
    }
    std::cout << "total: " << interaction_only
              << " interaction fault(s) visible only with interclass testing\n";

    const bool shape_holds =
        intraclass_run.baseline_clean && interclass_run.baseline_clean &&
        interclass_run.score() > intraclass_run.score() && interaction_only > 0;
    return shape_holds ? 0 : 1;
}

#include "shop_targets.h"

#include <memory>

#include "shop_component.h"
#include "stc/serve/builtin_host.h"
#include "wallet_component.h"

namespace stc::examples {

void register_example_targets() {
    // Wallet tested alone: Attach's Ledger parameter is completed with
    // unobserved pool Ledgers, so write-through mutants survive — the
    // baseline the shop assembly campaign is measured against.
    serve::BuiltinTarget wallet;
    wallet.make_component = [] {
        struct State {
            LedgerPool pool;
            driver::CompletionRegistry completions;
        };
        auto state = std::make_shared<State>();
        state->completions = state->pool.completions();
        serve::BuiltinComponent out;
        out.keepalive = state;
        out.component.emplace(wallet_intraclass_spec(), wallet_binding());
        out.component->set_completions(state->completions);
        out.completions = &state->completions;
        return out;
    };
    wallet.mutants = [] {
        return mutation::enumerate_mutants(wallet_descriptors(), "Wallet");
    };
    serve::register_builtin_target("wallet", std::move(wallet));

    // The interclass system (paper §6): Wallet and its audit Ledger as
    // roles of one lowered class, so the Ledger's state is observed and
    // the write-through mutants the wallet campaign misses are killed.
    serve::BuiltinTarget audited;
    audited.make_component = [] {
        interclass::LoweredSystem system = audited_wallet();
        serve::BuiltinComponent out;
        out.component.emplace(std::move(system.spec), std::move(system.binding));
        return out;
    };
    audited.mutants = [] {
        return mutation::enumerate_mutants(wallet_descriptors(), "Wallet");
    };
    serve::register_builtin_target("audited-wallet", std::move(audited));

    // The assembly product: the component under test is the Shop facade
    // driven by the synchronous product TFM, the mutant population is
    // the member class's (Wallet's) — the ISSUE's interface-vs-assembly
    // comparison runs the same mutants against both targets.
    serve::BuiltinTarget shop;
    shop.assembly = true;
    shop.make_component = [] {
        serve::BuiltinComponent out;
        out.component.emplace(shop_product().spec, shop_binding());
        return out;
    };
    shop.mutants = [] {
        return mutation::enumerate_mutants(wallet_descriptors(), "Wallet");
    };
    serve::register_builtin_target("shop", std::move(shop));
}

}  // namespace stc::examples

// Campaign-target registration for the example components: "wallet"
// (the intraclass Wallet campaign — the §6 counterpoint where
// collaboration faults survive), "audited-wallet" (the interclass
// Wallet+Ledger system, lowered to one class) and "shop" (the assembly
// product — the same Wallet mutants hunted through the composed
// interface).
#pragma once

namespace stc::examples {

/// Register the "wallet", "audited-wallet" and "shop" targets with the
/// serve registry (stc::serve::register_builtin_target).  Idempotent;
/// call once from main() before resolving campaign targets.
void register_example_targets();

}  // namespace stc::examples

// Interclass packaging of the Wallet/Ledger component: per-class t-specs
// (interface only — the test model lives at the system level), the
// system spec with its roles and system TFM, and the reflection
// bindings.
#pragma once

#include <memory>
#include <vector>

#include "stc/driver/generator.h"
#include "stc/interclass/lower.h"
#include "stc/reflect/class_binding.h"
#include "wallet.h"

namespace stc::examples {

/// Interface t-spec of Wallet (methods m1..m6).
[[nodiscard]] tspec::ComponentSpec wallet_spec();

/// Interface t-spec of Ledger (methods m1..m4).
[[nodiscard]] tspec::ComponentSpec ledger_spec();

/// The two-role system: wallet (Wallet) + audit (Ledger); the system TFM
/// sequences attach/deposit/withdraw/queries across both objects.
[[nodiscard]] interclass::SystemSpec wallet_system_spec();

/// The two-role system lowered onto the single-class pipeline over the
/// Wallet and Ledger bindings — the `audited-wallet` campaign target.
[[nodiscard]] interclass::LoweredSystem audited_wallet();

/// Individual class bindings.
[[nodiscard]] reflect::ClassBinding wallet_binding();
[[nodiscard]] reflect::ClassBinding ledger_binding();

/// Register both class bindings.
void register_wallet_classes(reflect::Registry& registry);

/// Canonical mutation descriptor registry for Wallet.
[[nodiscard]] const mutation::DescriptorRegistry& wallet_descriptors();

/// Wallet tested *alone* (intraclass): the same interface but with its
/// own single-class TFM; Attach's Ledger parameter is completed with a
/// fresh, unobserved Ledger from `pool`.  This is the §6 counterpoint:
/// collaboration faults invisible to intraclass testing.
[[nodiscard]] tspec::ComponentSpec wallet_intraclass_spec();

/// Arena of Ledger objects for intraclass completions.
class LedgerPool {
public:
    Ledger* make();
    [[nodiscard]] driver::CompletionRegistry completions();
    [[nodiscard]] std::size_t size() const noexcept { return ledgers_.size(); }

private:
    std::vector<std::unique_ptr<Ledger>> ledgers_;
};

}  // namespace stc::examples

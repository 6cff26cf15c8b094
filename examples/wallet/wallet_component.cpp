#include "wallet_component.h"

#include "stc/reflect/binder.h"
#include "stc/tspec/builder.h"

namespace stc::examples {

using tspec::MethodCategory;

tspec::ComponentSpec wallet_spec() {
    tspec::SpecBuilder b("Wallet");
    b.attr_range("balance_", 0, 1000000);
    b.method("m1", "Wallet", MethodCategory::Constructor);
    b.method("m2", "~Wallet", MethodCategory::Destructor);
    b.method("m3", "Attach", MethodCategory::New).param_pointer("ledger", "Ledger");
    b.method("m4", "Deposit", MethodCategory::New).param_range("amount", 1, 100);
    b.method("m5", "Withdraw", MethodCategory::New, "int")
        .param_range("amount", 1, 100);
    b.method("m6", "Balance", MethodCategory::New, "int");
    return b.build();
}

tspec::ComponentSpec ledger_spec() {
    tspec::SpecBuilder b("Ledger");
    b.method("m1", "Ledger", MethodCategory::Constructor);
    b.method("m2", "~Ledger", MethodCategory::Destructor);
    b.method("m3", "Count", MethodCategory::New, "int");
    b.method("m4", "Total", MethodCategory::New, "int");
    return b.build();
}

interclass::SystemSpec wallet_system_spec() {
    interclass::SystemSpecBuilder b("AuditedWallet");
    b.class_spec(wallet_spec());
    b.class_spec(ledger_spec());
    b.role("wallet", "Wallet", "m1");
    b.role("audit", "Ledger", "m1");

    // System TFM.  The attach call receives the 'audit' role's object —
    // the interclass interaction the generated transactions exercise.
    b.node("s1", true, {{"wallet", "m3"}});                      // Attach(@audit)
    b.node("s2", true, {{"wallet", "m4"}});                      // Deposit (unaudited path)
    b.node("s3", false, {{"wallet", "m4"}});                     // Deposit
    b.node("s4", false, {{"wallet", "m5"}});                     // Withdraw
    b.node("s5", false, {{"wallet", "m6"}, {"audit", "m3"}});    // Balance + Count
    b.node("s6", false, {{"audit", "m4"}});                      // Total

    b.edge("s1", "s3").edge("s2", "s3").edge("s2", "s5");
    b.edge("s3", "s3").edge("s3", "s4").edge("s3", "s5");
    b.edge("s4", "s5").edge("s4", "s6");
    b.edge("s5", "s6");
    return b.build();
}

const mutation::DescriptorRegistry& wallet_descriptors() {
    static const mutation::DescriptorRegistry registry = [] {
        mutation::DescriptorRegistry r;
        register_wallet_descriptors(r);
        return r;
    }();
    return registry;
}

tspec::ComponentSpec wallet_intraclass_spec() {
    tspec::SpecBuilder b("Wallet");
    b.attr_range("balance_", 0, 1000000);
    b.method("m1", "Wallet", MethodCategory::Constructor);
    b.method("m2", "~Wallet", MethodCategory::Destructor);
    b.method("m3", "Attach", MethodCategory::New).param_pointer("ledger", "Ledger");
    b.method("m4", "Deposit", MethodCategory::New).param_range("amount", 1, 100);
    b.method("m5", "Withdraw", MethodCategory::New, "int")
        .param_range("amount", 1, 100);
    b.method("m6", "Balance", MethodCategory::New, "int");

    // Same call shapes as the system TFM, but the Ledger is a tester
    // completion the suite never observes.
    b.node("n1", true, {"m1"});
    b.node("n2", false, {"m3"});  // Attach (completed ledger)
    b.node("n3", false, {"m4"});  // Deposit
    b.node("n4", false, {"m5"});  // Withdraw
    b.node("n5", false, {"m6"});  // Balance
    b.node("n6", false, {"m2"});  // death
    b.edge("n1", "n2").edge("n1", "n3").edge("n2", "n3");
    b.edge("n3", "n3").edge("n3", "n4").edge("n3", "n5");
    b.edge("n4", "n5").edge("n4", "n6");
    b.edge("n5", "n6");
    return b.build();
}

Ledger* LedgerPool::make() {
    ledgers_.push_back(std::make_unique<Ledger>());
    return ledgers_.back().get();
}

driver::CompletionRegistry LedgerPool::completions() {
    driver::CompletionRegistry out;
    out.provide("Ledger", [this](support::Pcg32&) {
        return domain::Value::make_pointer(make(), "Ledger");
    });
    return out;
}

reflect::ClassBinding wallet_binding() {
    reflect::Binder<Wallet> b("Wallet");
    b.ctor<>();
    b.method("Attach", &Wallet::Attach);
    b.method("Deposit", &Wallet::Deposit);
    b.method("Withdraw", &Wallet::Withdraw);
    b.method("Balance", &Wallet::Balance);
    return b.take();
}

reflect::ClassBinding ledger_binding() {
    reflect::Binder<Ledger> b("Ledger");
    b.ctor<>();
    b.method("Count", &Ledger::Count);
    b.method("Total", &Ledger::Total);
    return b.take();
}

void register_wallet_classes(reflect::Registry& registry) {
    registry.add(wallet_binding());
    registry.add(ledger_binding());
}

interclass::LoweredSystem audited_wallet() {
    reflect::Registry roles;
    register_wallet_classes(roles);
    return interclass::lower(wallet_system_spec(), roles);
}

}  // namespace stc::examples

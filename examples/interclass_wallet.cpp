// Interclass testing (the paper's §6 extension): a component made of two
// collaborating classes — Wallet and its audit Ledger — described by a
// system-level TFM whose transactions pass one role's object into
// another role's method.  The suite checks the cross-class property
// "wallet balance == ledger total" with a manually derived oracle on
// every audited transaction.  The system is lowered to one class
// (interclass::lower), so the ordinary generator and runner drive it.
#include <iostream>

#include "stc/core/self_testable.h"
#include "wallet_component.h"

int main() {
    using namespace stc;

    const auto system = examples::wallet_system_spec();
    std::cout << "== interclass component: " << system.component_name << " ==\n"
              << "roles:";
    for (const auto& role : system.roles) {
        std::cout << " " << role.role << ":" << role.class_name;
    }
    std::cout << "\n";

    interclass::LoweredSystem lowered = examples::audited_wallet();
    const core::SelfTestableComponent component(std::move(lowered.spec),
                                                std::move(lowered.binding));
    const auto report = component.self_test();
    const auto& suite = report.suite;
    const auto& result = report.result;
    std::cout << "system TFM: " << suite.model_nodes << " node(s), "
              << suite.model_links << " link(s); transactions: "
              << suite.transactions_enumerated << "\n\n";

    std::cout << "sample transaction (" << suite.cases.front().id << "): "
              << suite.cases.front().transaction_text << "\n";
    for (const auto& call : suite.cases.front().calls) {
        std::cout << "  " << call.render() << "\n";
    }
    std::cout << "\n";

    std::cout << "run: " << result.passed() << "/" << suite.size() << " passed\n";

    // Cross-class manual oracle: on every audited transaction the final
    // reports must agree (balance == ledger total).  Unaudited paths (no
    // Attach) legitimately diverge.
    std::size_t audited = 0;
    std::size_t consistent = 0;
    for (const auto& r : result.results) {
        const auto balance_pos = r.report.find("Wallet{balance=");
        const auto total_pos = r.report.find("total=");
        if (balance_pos == std::string::npos || total_pos == std::string::npos) continue;
        if (r.report.find("audited=yes") == std::string::npos) continue;
        ++audited;
        const int balance = std::stoi(r.report.substr(balance_pos + 15));
        const int total = std::stoi(r.report.substr(total_pos + 6));
        consistent += balance == total ? 1 : 0;
    }
    std::cout << "cross-class oracle (balance == ledger total): " << consistent << "/"
              << audited << " audited transactions consistent\n";

    const bool ok = result.failed() == 0 && audited > 0 && consistent == audited;
    std::cout << (ok ? "interclass suite green\n" : "FAILURES\n");
    return ok ? 0 : 1;
}

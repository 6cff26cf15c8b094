#include "stc/interclass/system_io.h"

#include <istream>
#include <ostream>

#include "stc/driver/wire_format.h"
#include "stc/support/error.h"
#include "stc/support/strings.h"

namespace stc::interclass {

namespace {

using driver::wire::decode;
using driver::wire::decode_value;
using driver::wire::encode;
using driver::wire::encode_value;
using driver::wire::parse_number;

constexpr const char* kMagic = "concat-system-suite 1";

std::string encode_arg(const SystemArg& arg) {
    // Role references travel as "@role"; plain values use the typed
    // encoding (whose first character is never '@').
    if (arg.is_role_ref()) return "@" + encode(arg.role_ref);
    return encode_value(arg.value);
}

SystemArg decode_arg(const std::string& field, int lineno) {
    SystemArg out;
    if (!field.empty() && field.front() == '@') {
        out.role_ref = decode(field.substr(1), lineno);
        return out;
    }
    out.value = decode_value(field, lineno);
    return out;
}

void write_call(std::ostream& os, const char* tag, const SystemMethodCall& call) {
    os << tag << " " << encode(call.role) << "|" << call.method_id << "|"
       << encode(call.method_name);
    for (const auto& arg : call.arguments) os << "|" << encode_arg(arg);
    os << "\n";
}

SystemMethodCall read_call(const std::string& payload, int lineno) {
    const auto fields = support::split(payload, '|');
    if (fields.size() < 3) {
        throw Error("system suite line " + std::to_string(lineno) +
                    ": call needs at least 3 fields");
    }
    SystemMethodCall call;
    call.role = decode(fields[0], lineno);
    call.method_id = fields[1];
    call.method_name = decode(fields[2], lineno);
    for (std::size_t i = 3; i < fields.size(); ++i) {
        call.arguments.push_back(decode_arg(fields[i], lineno));
    }
    return call;
}

}  // namespace

void save_system_suite(std::ostream& os, const SystemTestSuite& suite) {
    os << kMagic << "\n";
    os << "component " << suite.component_name << "\n";
    os << "seed " << suite.seed << "\n";
    os << "model " << suite.model_nodes << " " << suite.model_links << " "
       << suite.transactions_enumerated << "\n";
    for (const SystemTestCase& tc : suite.cases) {
        os << "case " << tc.id << "|" << encode(tc.transaction_text) << "|";
        for (std::size_t i = 0; i < tc.transaction.path.size(); ++i) {
            if (i != 0) os << ",";
            os << tc.transaction.path[i];
        }
        os << "|" << (tc.needs_completion ? 1 : 0) << "\n";
        for (const auto& call : tc.setup) write_call(os, "setup", call);
        for (const auto& call : tc.body) write_call(os, "callx", call);
        os << "end\n";
    }
}

SystemTestSuite load_system_suite(std::istream& is) {
    SystemTestSuite suite;
    std::string line;
    int lineno = 0;

    auto next_line = [&]() -> bool {
        while (std::getline(is, line)) {
            ++lineno;
            if (!support::trim(line).empty()) return true;
        }
        return false;
    };
    auto fail = [&](const std::string& message) -> void {
        throw Error("system suite line " + std::to_string(lineno) + ": " + message);
    };
    auto number = [&](const std::string& text) {
        return parse_number<std::uint64_t>(text, lineno);
    };

    if (!next_line() || line != kMagic) {
        throw Error("not a concat-system-suite file (bad magic)");
    }

    SystemTestCase* current = nullptr;
    while (next_line()) {
        if (support::starts_with(line, "component ")) {
            suite.component_name = line.substr(10);
        } else if (support::starts_with(line, "seed ")) {
            suite.seed = number(line.substr(5));
        } else if (support::starts_with(line, "model ")) {
            const auto fields = support::split(line.substr(6), ' ');
            if (fields.size() != 3) fail("model line needs 3 fields");
            suite.model_nodes = number(fields[0]);
            suite.model_links = number(fields[1]);
            suite.transactions_enumerated = number(fields[2]);
        } else if (support::starts_with(line, "case ")) {
            const auto fields = support::split(line.substr(5), '|');
            if (fields.size() != 4) fail("case line needs 4 fields");
            SystemTestCase tc;
            tc.id = fields[0];
            tc.transaction_text = decode(fields[1], lineno);
            if (!fields[2].empty()) {
                for (const auto& index : support::split(fields[2], ',')) {
                    tc.transaction.path.push_back(number(index));
                }
            }
            tc.needs_completion = fields[3] == "1";
            suite.cases.push_back(std::move(tc));
            current = &suite.cases.back();
        } else if (support::starts_with(line, "setup ")) {
            if (current == nullptr) fail("setup outside a case");
            current->setup.push_back(read_call(line.substr(6), lineno));
        } else if (support::starts_with(line, "callx ")) {
            if (current == nullptr) fail("call outside a case");
            current->body.push_back(read_call(line.substr(6), lineno));
        } else if (line == "end") {
            current = nullptr;
        } else {
            fail("unrecognized record '" + line + "'");
        }
    }
    return suite;
}

}  // namespace stc::interclass

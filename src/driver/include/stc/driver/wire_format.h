// Shared text wire-format helpers for the concat-* persistence formats
// (suite_io, golden_io, fuzz corpus):
// percent-encoding of field separators, the typed Value encoding, and
// the checked number parse every reader of these files goes through.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <type_traits>

#include "stc/domain/value.h"
#include "stc/support/error.h"

namespace stc::driver::wire {

/// Percent-encode '%', '|', and line breaks.
inline std::string encode(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '%' || c == '|' || c == '\n' || c == '\r') {
            char buf[8];
            std::snprintf(buf, sizeof buf, "%%%02x", static_cast<unsigned char>(c));
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

/// All of `text` as a T (an integer type, or double), or stc::Error
/// naming `lineno`: a corrupt file is rejected, never aborts the reader
/// or yields a number parsed from a prefix.
template <typename T>
T parse_number(std::string_view text, int lineno, int base = 10) {
    T value{};
    const char* end = text.data() + text.size();
    std::from_chars_result r;
    if constexpr (std::is_floating_point_v<T>) {
        r = std::from_chars(text.data(), end, value);
    } else {
        r = std::from_chars(text.data(), end, value, base);
    }
    if (r.ec != std::errc() || r.ptr != end) {
        throw Error("line " + std::to_string(lineno) + ": bad number '" +
                    std::string(text) + "'");
    }
    return value;
}

/// Inverse of encode(); a '%' not followed by two hex digits is an
/// stc::Error naming `lineno`.
inline std::string decode(const std::string& s, int lineno) {
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] == '%') {
            const std::string_view hex = std::string_view(s).substr(i + 1, 2);
            if (hex.size() != 2) {
                throw Error("line " + std::to_string(lineno) +
                            ": bad escape in '" + s + "'");
            }
            out += static_cast<char>(parse_number<unsigned>(hex, lineno, 16));
            i += 2;
        } else {
            out += s[i];
        }
    }
    return out;
}

/// Typed value field: "I:42", "R:1.5", "S:text", "E:", "P:Class" (live
/// pointers do not persist — only the pointee class survives).
inline std::string encode_value(const domain::Value& v) {
    using domain::ValueKind;
    switch (v.kind()) {
        case ValueKind::Empty: return "E:";
        case ValueKind::Int: return "I:" + std::to_string(v.as_int());
        case ValueKind::Real: {
            char buf[64];
            std::snprintf(buf, sizeof buf, "R:%.17g", v.as_real());
            return buf;
        }
        case ValueKind::String: return "S:" + encode(v.as_string());
        case ValueKind::Pointer:
        case ValueKind::Object:
            return "P:" + encode(v.as_object().type_name);
    }
    return "E:";
}

inline domain::Value decode_value(const std::string& field, int lineno) {
    if (field.size() < 2 || field[1] != ':') {
        throw Error("line " + std::to_string(lineno) + ": bad value field '" + field +
                    "'");
    }
    const std::string payload = field.substr(2);
    switch (field[0]) {
        case 'E': return {};
        case 'I':
            return domain::Value::make_int(parse_number<std::int64_t>(payload, lineno));
        case 'R':
            return domain::Value::make_real(parse_number<double>(payload, lineno));
        case 'S': return domain::Value::make_string(decode(payload, lineno));
        case 'P':
            return domain::Value::make_pointer(nullptr, decode(payload, lineno));
        default:
            throw Error("line " + std::to_string(lineno) + ": unknown value kind '" +
                        field.substr(0, 1) + "'");
    }
}

}  // namespace stc::driver::wire

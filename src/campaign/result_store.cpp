#include "stc/campaign/result_store.h"

#include <iterator>
#include <string_view>
#include <utility>
#include <vector>

#include "stc/campaign/outcome_codec.h"
#include "stc/support/error.h"

namespace stc::campaign {

using obs::JsonObject;

void ItemRecord::set_outcome(const mutation::MutantOutcome& outcome) {
    fate = mutation::to_string(outcome.fate);
    reason = oracle::to_string(outcome.reason);
    hit_by_suite = outcome.hit_by_suite;
    killed_by_probe = outcome.killed_by_probe;
    model_only = outcome.model_only;
    sandbox = outcome.sandbox;
    synthesized = outcome.synthesized;
}

mutation::MutantOutcome ItemRecord::outcome() const {
    mutation::MutantOutcome out;
    out.fate = mutation::fate_from_string(fate).value_or(out.fate);
    out.reason = oracle::kill_reason_from_string(reason).value_or(out.reason);
    out.hit_by_suite = hit_by_suite;
    out.killed_by_probe = killed_by_probe;
    out.model_only = model_only;
    out.sandbox = sandbox;
    out.synthesized = synthesized;
    return out;
}

JsonObject ItemRecord::to_json() const {
    JsonObject o;
    o.set("key", key)
        .set("mutant", mutant_id)
        .set("item", static_cast<std::uint64_t>(item_index));
    encode_outcome(o, outcome());
    o.set("item_seed", item_seed).set("wall_ms", wall_ms);
    return o;
}

std::optional<ItemRecord> ItemRecord::from_json(const JsonObject& o) {
    const auto key = o.get_string("key");
    const auto mutant = o.get_string("mutant");
    const auto item = o.get_uint("item");
    const auto outcome = decode_outcome(o);
    if (!key || !mutant || !item || !outcome) return {};
    ItemRecord r;
    r.key = *key;
    r.mutant_id = *mutant;
    r.item_index = static_cast<std::size_t>(*item);
    r.set_outcome(*outcome);
    r.item_seed = o.get_uint("item_seed").value_or(0);
    r.wall_ms = o.get_double("wall_ms").value_or(0.0);
    return r;
}

const ItemRecord* StorePeek::find(const std::string& key) const {
    for (const ItemRecord& r : records) {
        if (r.key == key) return &r;
    }
    return nullptr;
}

std::optional<StorePeek> peek_store(const std::string& path,
                                    std::string* error) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error != nullptr) *error = "cannot open result store: " + path;
        return {};
    }
    const std::string content{std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>()};
    const bool terminated = !content.empty() && content.back() == '\n';
    StorePeek out;
    std::size_t pos = 0;
    bool header_line = true;
    while (pos < content.size()) {
        const std::size_t nl = content.find('\n', pos);
        const bool last = nl == std::string::npos;
        const std::string_view line(content.data() + pos,
                                    (last ? content.size() : nl) - pos);
        pos = last ? content.size() : nl + 1;
        const bool torn = last && !terminated;
        if (header_line) {
            header_line = false;
            const auto header = JsonObject::parse(line);
            const auto campaign =
                header ? header->get_string("campaign") : std::nullopt;
            if (!header || header->get_string("event") != "store-header" ||
                !campaign || torn) {
                if (error != nullptr) {
                    *error = "not a result store (bad header): " + path;
                }
                return {};
            }
            out.fingerprint = *campaign;
            continue;
        }
        const auto parsed = JsonObject::parse(line);
        auto record = parsed ? ItemRecord::from_json(*parsed) : std::nullopt;
        if (!record || torn) {
            ++out.dropped;
            continue;
        }
        out.records.push_back(std::move(*record));
    }
    if (header_line) {
        if (error != nullptr) *error = "empty result store: " + path;
        return {};
    }
    return out;
}

void rewrite_store(const std::string& path, const std::string& fingerprint,
                   const std::vector<ItemRecord>& records) {
    std::ofstream out(path, std::ios::trunc);
    JsonObject header;
    header.set("event", "store-header").set("campaign", fingerprint);
    out << header.to_line() << '\n';
    for (const ItemRecord& record : records) {
        out << record.to_json().to_line() << '\n';
    }
    out.flush();
    if (!out) throw Error("cannot rewrite result store: " + path);
}

ResultStore::ResultStore(const std::string& path, const std::string& fingerprint)
    : fingerprint_(fingerprint) {
    // peek_store drops a torn tail; rewriting before this run appends
    // keeps the partial line from fusing with the next record.
    std::optional<StorePeek> peek = peek_store(path, nullptr);
    if (peek && peek->fingerprint == fingerprint_) {
        for (const ItemRecord& record : peek->records) {
            records_.insert_or_assign(record.key, record);
        }
        loaded_ = records_.size();
        dropped_ = peek->dropped;
        if (dropped_ > 0) rewrite_store(path, fingerprint_, peek->records);
    } else {
        rewrite_store(path, fingerprint_, {});
    }
    out_.open(path, std::ios::app);
    if (!out_) throw Error("cannot open result store: " + path);
}

const ItemRecord* ResultStore::find(const std::string& key) const {
    const auto it = records_.find(key);
    return it == records_.end() ? nullptr : &it->second;
}

void ResultStore::append(const ItemRecord& record) {
    const std::lock_guard<std::mutex> lock(mutex_);
    out_ << record.to_json().to_line() << '\n';
    out_.flush();
    records_.insert_or_assign(record.key, record);
}

}  // namespace stc::campaign

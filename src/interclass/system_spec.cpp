#include "stc/interclass/system_spec.h"

#include <set>

#include "stc/support/error.h"

namespace stc::interclass {

const RoleSpec* SystemSpec::find_role(const std::string& role) const {
    for (const auto& r : roles) {
        if (r.role == role) return &r;
    }
    return nullptr;
}

const tspec::ComponentSpec* SystemSpec::spec_of(const std::string& class_name) const {
    const auto it = class_specs.find(class_name);
    return it == class_specs.end() ? nullptr : &it->second;
}

std::string SystemSpec::role_providing(const std::string& class_name) const {
    for (const auto& r : roles) {
        if (r.class_name == class_name) return r.role;
    }
    return "";
}

std::string SystemSpec::role_ref(const tspec::TypedSlot& parameter) const {
    return parameter.domain ? "" : role_providing(parameter.class_name);
}

std::vector<tspec::SpecDiagnostic> SystemSpec::validate() const {
    std::vector<tspec::SpecDiagnostic> out;
    if (component_name.empty()) out.push_back({"System", "component name is empty"});
    if (roles.empty()) out.push_back({"System", "no roles declared"});

    std::set<std::string> role_names;
    for (const auto& r : roles) {
        if (!role_names.insert(r.role).second) {
            out.push_back({r.role, "duplicate role name"});
        }
        const tspec::ComponentSpec* spec = spec_of(r.class_name);
        if (spec == nullptr) {
            out.push_back({r.role, "no embedded t-spec for class " + r.class_name});
            continue;
        }
        const tspec::MethodSpec* ctor = spec->find_method(r.constructor_id);
        if (ctor == nullptr || !ctor->is_constructor()) {
            out.push_back({r.role, "constructor id '" + r.constructor_id +
                                       "' is not a constructor of " + r.class_name});
        }
    }

    std::set<std::string> node_ids;
    bool has_start = false;
    for (const auto& n : nodes) {
        if (!node_ids.insert(n.id).second) out.push_back({n.id, "duplicate node id"});
        has_start = has_start || n.is_start;
        if (n.calls.empty()) out.push_back({n.id, "node calls no methods"});
        for (const auto& call : n.calls) {
            const RoleSpec* r = find_role(call.role);
            if (r == nullptr) {
                out.push_back({n.id, "call on unknown role '" + call.role + "'"});
                continue;
            }
            const tspec::ComponentSpec* spec = spec_of(r->class_name);
            if (spec == nullptr) continue;  // already reported above
            const tspec::MethodSpec* m = spec->find_method(call.method_id);
            if (m == nullptr) {
                out.push_back({n.id, "role '" + call.role + "' has no method id " +
                                         call.method_id});
            } else if (m->is_constructor() || m->is_destructor()) {
                out.push_back({n.id,
                               "system nodes must not call constructors/destructors "
                               "(role lifetimes are managed by the harness)"});
            }
        }
    }
    if (!nodes.empty() && !has_start) {
        out.push_back({"System", "no starting node declared"});
    }

    for (const auto& e : edges) {
        if (node_ids.count(e.from) == 0) out.push_back({e.from, "edge from unknown node"});
        if (node_ids.count(e.to) == 0) out.push_back({e.to, "edge to unknown node"});
    }
    return out;
}

void SystemSpec::ensure_valid() const {
    const auto problems = validate();
    if (problems.empty()) return;
    std::string msg = "system spec '" + component_name + "' is invalid:";
    for (const auto& p : problems) msg += "\n  [" + p.where + "] " + p.message;
    throw SpecError(msg);
}

SystemSpecBuilder::SystemSpecBuilder(std::string component_name) {
    spec_.component_name = std::move(component_name);
}

SystemSpecBuilder& SystemSpecBuilder::role(std::string role, std::string class_name,
                                           std::string constructor_id) {
    spec_.roles.push_back(
        RoleSpec{std::move(role), std::move(class_name), std::move(constructor_id)});
    return *this;
}

SystemSpecBuilder& SystemSpecBuilder::class_spec(tspec::ComponentSpec spec) {
    const std::string name = spec.class_name;
    spec_.class_specs.emplace(name, std::move(spec));
    return *this;
}

SystemSpecBuilder& SystemSpecBuilder::node(std::string id, bool is_start,
                                           std::vector<SystemCall> calls) {
    spec_.nodes.push_back(SystemNodeSpec{std::move(id), is_start, std::move(calls)});
    return *this;
}

SystemSpecBuilder& SystemSpecBuilder::edge(std::string from, std::string to) {
    spec_.edges.push_back(SystemEdgeSpec{std::move(from), std::move(to)});
    return *this;
}

SystemSpec SystemSpecBuilder::build() const {
    SystemSpec out = spec_;
    out.ensure_valid();
    return out;
}

}  // namespace stc::interclass

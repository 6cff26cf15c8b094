#include "stc/interclass/lower.h"

#include <algorithm>
#include <memory>

#include "stc/support/error.h"

namespace stc::interclass {

namespace {

/// Where each parameter of a role method comes from: the next lowered
/// argument (kLowered) or the object of the role at that index.
constexpr std::size_t kLowered = static_cast<std::size_t>(-1);
using Sources = std::vector<std::size_t>;

struct Role {
    std::string name;
    reflect::ClassBinding binding;
    Sources constructor;
};
using Roles = std::vector<Role>;

/// The lowered object: one live object per constructed role.
class RoleTuple final : public bit::BuiltInTest {
public:
    explicit RoleTuple(std::shared_ptr<const Roles> roles) : roles_(std::move(roles)) {}

    ~RoleTuple() override {
        for (std::size_t i = objects_.size(); i-- > 0;) {
            try {
                (*roles_)[i].binding.destroy(objects_[i]);
            } catch (...) {
                // Best effort, as for any CUT the runner tears down.
            }
        }
    }

    RoleTuple(const RoleTuple&) = delete;
    RoleTuple& operator=(const RoleTuple&) = delete;

    void construct_roles(const reflect::Args& args) {
        std::size_t next = 0;
        for (const Role& role : *roles_) {
            objects_.push_back(role.binding.construct(weave(role.constructor, args, &next)));
        }
    }

    domain::Value invoke(std::size_t role, const std::string& method,
                         const Sources& sources, const reflect::Args& args) const {
        std::size_t next = 0;
        return (*roles_)[role].binding.invoke(objects_[role], method,
                                              weave(sources, args, &next));
    }

    void InvariantTest() const override {
        for (std::size_t i = 0; i < objects_.size(); ++i) {
            const bit::BuiltInTest* view = (*roles_)[i].binding.as_bit(objects_[i]);
            if (view != nullptr) view->InvariantTest();
        }
    }

    void Reporter(std::ostream& os) const override {
        for (std::size_t i = 0; i < objects_.size(); ++i) {
            const bit::BuiltInTest* view = (*roles_)[i].binding.as_bit(objects_[i]);
            if (view == nullptr) continue;
            std::string report;
            try {
                report = view->report();
            } catch (...) {
                report = "<Reporter failed>";
            }
            os << (*roles_)[i].name << ": " << report << "\n";
        }
    }

private:
    /// The role method's full argument list: lowered arguments in order,
    /// live role objects at the role-reference positions.
    reflect::Args weave(const Sources& sources, const reflect::Args& args,
                        std::size_t* next) const {
        reflect::Args out;
        out.reserve(sources.size());
        for (const std::size_t source : sources) {
            if (source == kLowered) {
                out.push_back(args.at((*next)++));
            } else if (source < objects_.size()) {
                out.push_back(domain::Value::make_pointer(
                    objects_[source], (*roles_)[source].binding.name()));
            } else {
                throw ReflectError("no live object for role '" +
                                   (*roles_)[source].name + "'");
            }
        }
        return out;
    }

    std::shared_ptr<const Roles> roles_;
    std::vector<void*> objects_;
};

}  // namespace

LoweredSystem lower(const SystemSpec& system, const reflect::Registry& registry) {
    system.ensure_valid();
    LoweredSystem out;
    tspec::ComponentSpec& spec = out.spec;
    spec.class_name = system.component_name;

    // Splits `method`'s parameters into the lowered signature (appended
    // to `lowered`) and the per-parameter sources the binding weaves.
    const auto route = [&](const tspec::MethodSpec& method, tspec::MethodSpec* lowered) {
        Sources sources;
        for (const tspec::TypedSlot& p : method.parameters) {
            const std::string ref = system.role_ref(p);
            if (ref.empty()) {
                sources.push_back(kLowered);
                lowered->parameters.push_back(p);
            } else {
                sources.push_back(static_cast<std::size_t>(
                    system.find_role(ref) - system.roles.data()));
            }
        }
        return sources;
    };

    tspec::MethodSpec ctor;
    ctor.id = "ctor";
    ctor.name = system.component_name;
    ctor.category = tspec::MethodCategory::Constructor;
    auto roles = std::make_shared<Roles>();
    for (const RoleSpec& role : system.roles) {
        const tspec::MethodSpec& role_ctor =
            *system.spec_of(role.class_name)->find_method(role.constructor_id);
        roles->push_back(Role{role.role, registry.at(role.class_name),
                              route(role_ctor, &ctor)});
    }
    const std::size_t ctor_arity = ctor.parameters.size();
    spec.methods.push_back(std::move(ctor));

    out.binding = reflect::ClassBinding(system.component_name);
    out.binding.add_constructor(ctor_arity, [roles](const reflect::Args& args) -> void* {
        auto tuple = std::make_unique<RoleTuple>(roles);
        tuple->construct_roles(args);
        return tuple.release();
    });
    out.binding.set_destructor([](void* p) { delete static_cast<RoleTuple*>(p); });
    out.binding.set_bit_caster(
        [](void* p) -> bit::BuiltInTest* { return static_cast<RoleTuple*>(p); });

    for (std::size_t r = 0; r < system.roles.size(); ++r) {
        const std::string& role = system.roles[r].role;
        for (const tspec::MethodSpec& m :
             system.spec_of(system.roles[r].class_name)->methods) {
            if (m.is_constructor() || m.is_destructor()) continue;
            tspec::MethodSpec lowered = m;
            lowered.id = role + "." + m.id;
            lowered.name = role + "." + m.name;
            lowered.parameters.clear();
            Sources sources = route(m, &lowered);
            out.binding.add_method(
                lowered.name, lowered.parameters.size(),
                [r, name = m.name, sources = std::move(sources)](
                    void* p, const reflect::Args& args) {
                    return static_cast<RoleTuple*>(p)->invoke(r, name, sources, args);
                });
            spec.methods.push_back(std::move(lowered));
        }
    }

    tspec::NodeSpec birth{"birth", true, 0, {"ctor"}};
    for (const SystemNodeSpec& n : system.nodes) {
        tspec::NodeSpec node{n.id, false, 0, {}};
        for (const SystemCall& call : n.calls) {
            node.method_ids.push_back(call.role + "." + call.method_id);
        }
        if (n.is_start) spec.edges.push_back({birth.id, n.id});
        spec.nodes.push_back(std::move(node));
    }
    spec.nodes.insert(spec.nodes.begin(), std::move(birth));
    for (const SystemEdgeSpec& e : system.edges) spec.edges.push_back({e.from, e.to});
    for (tspec::NodeSpec& n : spec.nodes) {
        n.declared_out_degree = static_cast<int>(std::count_if(
            spec.edges.begin(), spec.edges.end(),
            [&](const tspec::EdgeSpec& e) { return e.from == n.id; }));
    }
    spec.ensure_valid();
    return out;
}

}  // namespace stc::interclass

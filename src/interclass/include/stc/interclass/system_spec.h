// Interclass testing — the paper's stated extension (§6): "we are also
// extending this approach for components having more than one class; so
// instead of method's interactions inside a class (intraclass testing),
// we focus on interactions between classes (interclass testing)."
//
// A multi-class component is described by a SystemSpec: a set of *roles*
// (named collaborating objects, each an instance of a self-testable
// class), and a system-level TFM whose nodes sequence method calls on
// those roles.  The TFM semantics carry over directly — §3.2 already
// notes the transaction-flow model "can be used for components having
// more than one object ... as it can show the sequencing of activities
// performed by several objects as well."
//
// Interclass interaction is expressed through parameters: a structured
// parameter whose class matches another role's class is bound to that
// role's live object (a role reference), so generated transactions
// exercise real cross-object calls.
//
// A SystemSpec runs by being lowered to an ordinary single-class t-spec
// (lower.h); everything downstream is the single-class pipeline.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "stc/tspec/model.h"

namespace stc::interclass {

/// One collaborating object of the component.
struct RoleSpec {
    std::string role;            ///< e.g. "wallet"
    std::string class_name;      ///< e.g. "Wallet"
    std::string constructor_id;  ///< method id of the constructor to use
};

/// One method invocation slot in a system TFM node: which role performs
/// which of its class's methods.
struct SystemCall {
    std::string role;
    std::string method_id;
};

struct SystemNodeSpec {
    std::string id;
    bool is_start = false;
    std::vector<SystemCall> calls;  ///< at least one
};

struct SystemEdgeSpec {
    std::string from;
    std::string to;
};

/// The multi-class component specification.
class SystemSpec {
public:
    std::string component_name;
    std::vector<RoleSpec> roles;
    /// Embedded t-specs of the participating classes, keyed by class
    /// name.  Only the interface part is used (methods, domains); the
    /// test model lives at the system level.
    std::map<std::string, tspec::ComponentSpec> class_specs;
    std::vector<SystemNodeSpec> nodes;
    std::vector<SystemEdgeSpec> edges;

    [[nodiscard]] const RoleSpec* find_role(const std::string& role) const;
    [[nodiscard]] const tspec::ComponentSpec* spec_of(const std::string& class_name) const;

    /// The first role whose class matches `class_name` ("" if none) —
    /// the binding rule for role-reference parameters.
    [[nodiscard]] std::string role_providing(const std::string& class_name) const;

    /// The role `parameter` is bound to ("" for an ordinary parameter):
    /// a structured parameter without a value domain whose class a role
    /// provides takes that role's live object.
    [[nodiscard]] std::string role_ref(const tspec::TypedSlot& parameter) const;

    /// Semantic validation: roles resolve to class specs, constructor
    /// ids are constructors, node calls reference known roles/methods,
    /// edges reference known nodes, a start node exists.
    [[nodiscard]] std::vector<tspec::SpecDiagnostic> validate() const;
    void ensure_valid() const;
};

/// Fluent construction.
class SystemSpecBuilder {
public:
    explicit SystemSpecBuilder(std::string component_name);

    SystemSpecBuilder& role(std::string role, std::string class_name,
                            std::string constructor_id);
    SystemSpecBuilder& class_spec(tspec::ComponentSpec spec);
    SystemSpecBuilder& node(std::string id, bool is_start,
                            std::vector<SystemCall> calls);
    SystemSpecBuilder& edge(std::string from, std::string to);

    [[nodiscard]] SystemSpec build() const;  ///< validated

private:
    SystemSpec spec_;
};

}  // namespace stc::interclass

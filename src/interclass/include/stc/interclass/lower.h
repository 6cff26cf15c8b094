// Lowering a multi-class system onto the single-class pipeline.
//
// A SystemSpec becomes an ordinary t-spec plus one class binding whose
// objects are role tuples, so a system suite is generated by
// driver::DriverGenerator, run by driver::TestRunner and mutated by the
// campaign engine exactly like a single class (prune, --isolate,
// dispatch and kill included) — the composition is tested with the same
// machinery as its parts.
//
// The lowered spec:
//   - one birth node holds a synthetic constructor whose parameters are
//     the role constructors' parameters, concatenated in role order; it
//     links to every system start node;
//   - each role method becomes method id "role.method_id" named
//     "role.Method", with its role-reference parameters dropped;
//   - the system TFM's nodes and edges carry over unchanged.
//
// The binding:
//   - construction builds every role, in declaration order, into one
//     tuple object; destruction tears them down in reverse order;
//   - "role.Method" is sent to that role's object, with the live role
//     objects put back at the dropped role-reference positions;
//   - the tuple's BIT view checks every role's invariant and reports
//     "role: <Reporter output>" per role — the Fig. 6 discipline
//     extended to all collaborators.
// There is no cloner, so campaign prefix memoization stays off for a
// lowered system; coverage pruning applies as usual.
#pragma once

#include "stc/interclass/system_spec.h"
#include "stc/reflect/class_binding.h"

namespace stc::interclass {

struct LoweredSystem {
    tspec::ComponentSpec spec;      ///< class name == system component name
    reflect::ClassBinding binding;  ///< the role-tuple class, same name
};

/// Lower `system` over the role classes' bindings in `registry` (copied:
/// the registry need not outlive the result).  Throws SpecError when the
/// system is invalid and stc::Error naming the class when a role's class
/// has no binding.
[[nodiscard]] LoweredSystem lower(const SystemSpec& system,
                                  const reflect::Registry& registry);

}  // namespace stc::interclass

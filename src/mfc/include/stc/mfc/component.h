// Self-testable packaging of CObList / CSortableObList: the t-specs
// (interface + TFM), the reflection bindings (including the tester's
// manual completions for structured parameters), the element pool, and
// the mutation descriptor registry.  This is everything a *consumer*
// needs to test the component — the paper's claim is precisely that the
// producer ships all of this along with the implementation.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "stc/driver/generator.h"
#include "stc/mfc/sortable.h"
#include "stc/mutation/descriptor.h"
#include "stc/reflect/binder.h"
#include "stc/tspec/model.h"

namespace stc::mfc {

/// Arena of comparable elements used to complete CObject* parameters.
/// Elements live as long as the pool: generated test suites hold
/// pointers to them across (many) mutation runs, and CObList never owns
/// its elements (MFC semantics), so nothing else may delete them.
/// make() and size() are thread-safe: campaign workers draw elements
/// through one shared completion (e.g. while shrinking kills), and an
/// element's address never moves once made.
class ElementPool {
public:
    /// Create (and own) a new element with the given value.
    CObject* make(int value);

    [[nodiscard]] std::size_t size() const;

    /// A completion hook for t-spec 'CObject' pointer parameters: yields
    /// pool elements with values drawn uniformly from [lo, hi].
    [[nodiscard]] driver::CompletionRegistry::Completion completion(int lo, int hi);

private:
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<CInt>> elements_;
};

/// The t-spec a producer embeds in CObList (methods m1..m11, 10-node
/// TFM).  Structured parameters ('CObject') require a completion.
[[nodiscard]] tspec::ComponentSpec coblist_spec();

/// The t-spec for CSortableObList: superclass CObList; inherited
/// add/remove/query methods plus the five *new* methods of Table 2; the
/// 16-node / 43-link TFM matching the model size reported in §4.
[[nodiscard]] tspec::ComponentSpec sortable_spec();

/// Reflection bindings.  Wrapper methods play the tester's completion
/// role for values that cannot be generated: removal/query methods are
/// defensive on the empty list, POSITION parameters are derived from an
/// index argument, and returned elements are rendered to text so the
/// output-diff oracle can observe them.
[[nodiscard]] reflect::ClassBinding coblist_binding();
[[nodiscard]] reflect::ClassBinding sortable_binding();

/// Register both bindings into a registry.
void register_mfc(reflect::Registry& registry);

/// Canonical mutation descriptor registry for both classes.
[[nodiscard]] const mutation::DescriptorRegistry& descriptors();

/// Convenience: a completion registry wired to `pool` for the 'CObject'
/// parameters of both specs (values in [lo, hi]).
[[nodiscard]] driver::CompletionRegistry make_completions(ElementPool& pool,
                                                          int lo = 0, int hi = 999);

}  // namespace stc::mfc

#include "stc/mfc/component.h"

#include "stc/tspec/builder.h"

namespace stc::mfc {

using domain::Value;
using reflect::Args;
using tspec::MethodCategory;

CObject* ElementPool::make(int value) {
    auto element = std::make_unique<CInt>(value);
    CObject* out = element.get();
    const std::lock_guard<std::mutex> lock(mutex_);
    elements_.push_back(std::move(element));
    return out;
}

std::size_t ElementPool::size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return elements_.size();
}

driver::CompletionRegistry::Completion ElementPool::completion(int lo, int hi) {
    return [this, lo, hi](support::Pcg32& rng) {
        CObject* element = make(static_cast<int>(rng.uniform(lo, hi)));
        return Value::make_pointer(element, "CObject");
    };
}

driver::CompletionRegistry make_completions(ElementPool& pool, int lo, int hi) {
    driver::CompletionRegistry out;
    out.provide("CObject", pool.completion(lo, hi));
    return out;
}

namespace {

/// Shared interface description for both list classes.  `category_of`
/// marks each non-special method per the class's reuse situation.
void add_list_methods(tspec::SpecBuilder& b, const std::string& class_name,
                      MethodCategory base_category) {
    b.method("m1", class_name, MethodCategory::Constructor);
    b.method("m2", "~" + class_name, MethodCategory::Destructor);
    b.method("m3", "AddHead", base_category, "POSITION")
        .param_pointer("newElement", "CObject");
    b.method("m4", "AddTail", base_category, "POSITION")
        .param_pointer("newElement", "CObject");
    b.method("m5", "RemoveHead", base_category, "CObject*");
    b.method("m6", "RemoveTail", base_category, "CObject*");
    b.method("m7", "RemoveAt", base_category).param_range("index", 0, 9);
    b.method("m8", "GetCount", base_category, "int");
    b.method("m9", "FindIndex", base_category, "POSITION")
        .param_range("index", 0, 9);
    b.method("m10", "RemoveAll", base_category);
    b.method("m11", "IsEmpty", base_category, "BOOL");
}

void add_list_attributes(tspec::SpecBuilder& b) {
    b.attr_pointer("m_pNodeHead", "CNode");
    b.attr_pointer("m_pNodeTail", "CNode");
    b.attr_pointer("m_pNodeFree", "CNode");
    b.attr_range("m_nCount", 0, 1000000);
    b.attr_range("m_nBlockSize", 1, 1024);
}

}  // namespace

tspec::ComponentSpec coblist_spec() {
    tspec::SpecBuilder b("CObList");
    b.source_file("src/mfc/coblist.cpp");
    add_list_attributes(b);
    add_list_methods(b, "CObList", MethodCategory::New);

    // TFM: create -> adds (with an add/add cycle) -> removals/queries -> die.
    b.node("n1", true, {"m1"});
    b.node("n2", false, {"m3"});   // AddHead
    b.node("n3", false, {"m4"});   // AddTail
    b.node("n4", false, {"m5"});   // RemoveHead
    b.node("n5", false, {"m6"});   // RemoveTail
    b.node("n6", false, {"m7"});   // RemoveAt
    b.node("n7", false, {"m8", "m11"});  // GetCount + IsEmpty
    b.node("n8", false, {"m9"});   // FindIndex
    b.node("n9", false, {"m10"});  // RemoveAll
    b.node("n10", false, {"m2"});  // death

    b.edge("n1", "n2").edge("n1", "n3");
    b.edge("n2", "n3").edge("n2", "n4").edge("n2", "n7").edge("n2", "n10");
    b.edge("n3", "n2").edge("n3", "n5").edge("n3", "n6").edge("n3", "n7");
    b.edge("n4", "n8").edge("n4", "n10");
    b.edge("n5", "n9").edge("n5", "n10");
    b.edge("n6", "n7").edge("n6", "n10");
    b.edge("n7", "n4").edge("n7", "n5").edge("n7", "n10");
    b.edge("n8", "n9").edge("n8", "n10");
    b.edge("n9", "n10");

    return b.build();
}

tspec::ComponentSpec sortable_spec() {
    tspec::SpecBuilder b("CSortableObList");
    b.superclass("CObList");
    b.source_file("src/mfc/sortable.cpp");
    add_list_attributes(b);
    add_list_methods(b, "CSortableObList", MethodCategory::Inherited);
    b.method("m12", "Sort1", MethodCategory::New);
    b.method("m13", "Sort2", MethodCategory::New);
    b.method("m14", "ShellSort", MethodCategory::New);
    b.method("m15", "FindMax", MethodCategory::New, "CObject*");
    b.method("m16", "FindMin", MethodCategory::New, "CObject*");

    // 16 nodes / 43 links — the model size reported in §4.
    b.node("n1", true, {"m1"});
    b.node("n2", false, {"m3"});    // AddHead
    b.node("n3", false, {"m4"});    // AddTail
    b.node("n4", false, {"m12"});   // Sort1
    b.node("n5", false, {"m13"});   // Sort2
    b.node("n6", false, {"m14"});   // ShellSort
    b.node("n7", false, {"m15"});   // FindMax
    b.node("n8", false, {"m16"});   // FindMin
    b.node("n9", false, {"m5"});    // RemoveHead
    b.node("n10", false, {"m6"});   // RemoveTail
    b.node("n11", false, {"m7"});   // RemoveAt
    b.node("n12", false, {"m9"});   // FindIndex
    b.node("n13", false, {"m8"});   // GetCount
    b.node("n14", false, {"m10"});  // RemoveAll
    b.node("n15", false, {"m2"});   // death
    b.node("n16", false, {"m11"});  // IsEmpty

    // The inherited add/remove/query behaviour forms its own rich path
    // family (those transactions are composed only of inherited methods
    // and are therefore *reused, not rerun* by the incremental
    // technique), while the sort/find paths — the ones the subclass must
    // retest — touch the removal methods only through a single
    // FindMax -> RemoveAt link.  This mirrors the situation behind the
    // paper's Table 3: the subclass's test set exercises the base-class
    // removal code only incidentally.
    b.edge("n1", "n2").edge("n1", "n3");
    b.edge("n2", "n3").edge("n3", "n2");
    // inherited-only continuations
    b.edge("n2", "n9").edge("n2", "n10").edge("n2", "n13");
    b.edge("n3", "n9").edge("n3", "n11").edge("n3", "n13").edge("n3", "n12");
    b.edge("n9", "n10").edge("n9", "n12");
    b.edge("n10", "n13").edge("n10", "n14").edge("n10", "n15");
    b.edge("n11", "n14").edge("n11", "n15");
    b.edge("n12", "n11").edge("n12", "n15");
    b.edge("n13", "n9").edge("n13", "n15");
    b.edge("n14", "n16").edge("n14", "n15");
    b.edge("n16", "n15");
    // sort/find phase (new methods -> retested transactions)
    b.edge("n2", "n4").edge("n2", "n5").edge("n2", "n6");
    b.edge("n3", "n4").edge("n3", "n6");
    b.edge("n4", "n7").edge("n4", "n8").edge("n4", "n15");
    b.edge("n5", "n7").edge("n5", "n8").edge("n5", "n15");
    b.edge("n6", "n7").edge("n6", "n8").edge("n6", "n15");
    b.edge("n7", "n8").edge("n7", "n11").edge("n7", "n15");
    b.edge("n8", "n15");

    return b.build();
}

namespace {

std::string text_of(const CObject* object) {
    return object != nullptr ? object->ToText() : "<null>";
}

/// Defensive wrappers shared by both classes: the tester's completion of
/// removal/query calls so that every TFM path is executable on the
/// original component (the paper's baseline outputs were validated clean
/// before the experiments).  On a *mutated* component the same wrappers
/// read corrupted state and fault/diverge — which is the point.
template <typename T>
void add_list_wrappers(reflect::Binder<T>& b) {
    b.template ctor<>();
    // Representation-faithful copy for campaign prefix memoization
    // (CObList::CopyStateFrom): the node-pool graph is cloned
    // isomorphically — chain, free-list order, count — because a mutated
    // suffix resumed from the checkpoint may read the representation
    // itself (m_pNodeFree, head/tail links); a behavioural re-AddTail
    // copy leaves a different free list and changes which fault fires.
    // Raw member writes only, never a mutation site, so cloning while a
    // mutant is active cannot perturb its hit flag.
    b.cloner([](const T& source) {
        auto copy = std::make_unique<T>();
        copy->CopyStateFrom(source);
        return copy.release();
    });
    b.method("AddHead", static_cast<POSITION (T::*)(CObject*)>(&T::AddHead));
    b.method("AddTail", static_cast<POSITION (T::*)(CObject*)>(&T::AddTail));
    b.method("GetCount", &T::GetCount);
    b.method("IsEmpty", &T::IsEmpty);
    b.method("RemoveAll", &T::RemoveAll);
    b.custom("RemoveHead", 0, [](T& list, const Args&) {
        if (list.IsEmpty()) return Value::make_string("<noop>");
        return Value::make_string(text_of(list.RemoveHead()));
    });
    b.custom("RemoveTail", 0, [](T& list, const Args&) {
        if (list.IsEmpty()) return Value::make_string("<noop>");
        return Value::make_string(text_of(list.RemoveTail()));
    });
    b.custom("RemoveAt", 1, [](T& list, const Args& args) {
        if (list.IsEmpty()) return Value::make_string("<noop>");
        const auto index =
            static_cast<int>(args.at(0).as_int() % static_cast<std::int64_t>(
                                                       list.GetCount()));
        const POSITION position = list.FindIndex(index);
        list.RemoveAt(position);
        return Value::make_int(list.GetCount());
    });
    b.custom("FindIndex", 1, [](T& list, const Args& args) {
        if (list.IsEmpty()) return Value::make_string("<none>");
        const auto index =
            static_cast<int>(args.at(0).as_int() % static_cast<std::int64_t>(
                                                       list.GetCount()));
        const POSITION position = list.FindIndex(index);
        if (position == nullptr) return Value::make_string("<none>");
        return Value::make_string(text_of(list.GetAt(position)));
    });
}

}  // namespace

reflect::ClassBinding coblist_binding() {
    reflect::Binder<CObList> b("CObList");
    add_list_wrappers(b);
    return b.take();
}

reflect::ClassBinding sortable_binding() {
    reflect::Binder<CSortableObList> b("CSortableObList");
    add_list_wrappers(b);
    b.method("Sort1", &CSortableObList::Sort1);
    b.method("Sort2", &CSortableObList::Sort2);
    b.method("ShellSort", &CSortableObList::ShellSort);
    b.custom("FindMax", 0, [](CSortableObList& list, const Args&) {
        if (list.IsEmpty()) return Value::make_string("<empty>");
        return Value::make_string(text_of(list.FindMax()));
    });
    b.custom("FindMin", 0, [](CSortableObList& list, const Args&) {
        if (list.IsEmpty()) return Value::make_string("<empty>");
        return Value::make_string(text_of(list.FindMin()));
    });
    return b.take();
}

void register_mfc(reflect::Registry& registry) {
    registry.add(coblist_binding());
    registry.add(sortable_binding());
}

const mutation::DescriptorRegistry& descriptors() {
    static const mutation::DescriptorRegistry registry = [] {
        mutation::DescriptorRegistry r;
        register_coblist_descriptors(r);
        register_sortable_descriptors(r);
        return r;
    }();
    return registry;
}

}  // namespace stc::mfc

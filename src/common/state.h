// One state list per class, and every state mechanism derived from it.
//
// A stateful class names each of its data members exactly once, with a
// tag, in one static member template:
//
//   template <class Self, class V>
//   static void VisitState(Self& self, V& v) {
//     v.Fixed("site_id_", self.site_id_);
//     v.Protocol("view_", self.view_);
//     v.Log("installs_", self.installs_);
//     v.Durable("durable_wal_", self.durable_wal_);
//   }
//
// `Self` deduces const for the read-only mechanisms and non-const for the
// mutating ones, so one list serves both. The visitors below derive:
//
//   StateSaver / StateRestorer    snapshot save and restore: member-wise
//                                 copies, never a byte round trip
//   UndoCapture                   undo-log capture at a mutation entry
//                                 point (first touch per era wins)
//   StateEncoder / StateDecoder   the warehouse checkpoint codec
//   StateHashVisitor              the canonical fingerprint, and in exact
//                                 mode the round-trip oracle's debug dump
//
// Tags choose the mechanisms that see a member:
//
//              snapshot  undo     checkpoint  fingerprint
//   Protocol   copy      value    yes         yes
//   Log        copy      tail*    length*     yes
//   Durable    copy      value    no          yes
//   History    copy      value    yes         exact dump only
//   Fixed      -         -        -           -
//
//   * Log marks an append-only audit log, which survives a crash like the
//     durable store. Undo records only its length and truncates on
//     rollback, except in full eras (the warehouse's crash/recovery path,
//     which truncates the logs), which capture it by value. A checkpoint
//     records only its length; restore CHECKs that the live log is at
//     least that long and truncates it to that length. Durable marks
//     state that survives a crash beside the checkpoint (the durable store
//     and the recovery counters). History marks interleaving history that
//     is not state (the simulator's sequence counter). Fixed marks
//     configuration and wiring.
//
// Nested state structs (an in-flight sweep, a pending query, an update, a
// message) carry a list too: the codec and the fingerprint descend into
// it, while snapshot and undo copy the enclosing member whole. Components
// (a list-bearing class that cannot be copied, or one held by unique_ptr)
// are descended into by snapshot and fingerprint; each captures its own
// undo entries.
//
// A member the generic rules get wrong names an adapter as a third
// argument: a type with any of these static hooks, each replacing the
// tag's rule for its mechanism:
//
//   Save(const T&) -> S, Restore(T&, const S&)   snapshot as an S
//   Capture(UndoLog&, T&)                        custom undo entry
//   Hash(StateHasher&, const char* name, const T&, bool exact)
//
// Checkpoint type map: int -> I32; other integers -> I64; bool -> Bool;
// enums -> U8; strings -> an I64 length, then the bytes; optional -> a
// Bool, then the value; variant -> U8 alternative index, then the
// alternative; pair -> first, then second; containers -> an I64 count,
// then the elements, unordered sets sorted; a Log member -> its I64
// length alone. Relation and Tuple are hand-written leaf codecs, the
// EncodeLeaf/DecodeLeaf overloads of core/checkpoint.h. Fingerprint
// leaves are the HashLeaf overloads beside each leaf type.

#ifndef SWEEPMV_COMMON_STATE_H_
#define SWEEPMV_COMMON_STATE_H_

#include <algorithm>
#include <any>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <variant>
#include <vector>

#include "common/check.h"
#include "common/fingerprint.h"
#include "common/undo.h"

namespace sweepmv {

enum class StateTag { kProtocol, kLog, kDurable, kHistory, kFixed };

// The adapter of a list entry that names none.
struct NoAdapter {};

// Forwards the list's per-tag calls to the visitor's Entry<tag>.
template <class Derived>
class StateVisitor {
 public:
  template <class T, class A = NoAdapter>
  void Protocol(const char* name, T& x, A a = {}) {
    derived().template Entry<StateTag::kProtocol>(name, x, a);
  }
  template <class T, class A = NoAdapter>
  void Log(const char* name, T& x, A a = {}) {
    derived().template Entry<StateTag::kLog>(name, x, a);
  }
  template <class T, class A = NoAdapter>
  void Durable(const char* name, T& x, A a = {}) {
    derived().template Entry<StateTag::kDurable>(name, x, a);
  }
  template <class T, class A = NoAdapter>
  void History(const char* name, T& x, A a = {}) {
    derived().template Entry<StateTag::kHistory>(name, x, a);
  }
  template <class T, class A = NoAdapter>
  void Fixed(const char* name, T& x, A a = {}) {
    derived().template Entry<StateTag::kFixed>(name, x, a);
  }

 private:
  Derived& derived() { return static_cast<Derived&>(*this); }
};

namespace state_internal {

// Ignores every entry; only used to detect lists.
struct ListProbe : StateVisitor<ListProbe> {
  template <StateTag, class T, class A>
  void Entry(const char*, T&, A) {}
};

template <class T>
struct IsUniquePtr : std::false_type {};
template <class T>
struct IsUniquePtr<std::unique_ptr<T>> : std::true_type {};
template <class T>
struct IsSharedPtr : std::false_type {};
template <class T>
struct IsSharedPtr<std::shared_ptr<T>> : std::true_type {};
template <class T>
struct IsOptional : std::false_type {};
template <class T>
struct IsOptional<std::optional<T>> : std::true_type {};
template <class T>
struct IsPair : std::false_type {};
template <class A, class B>
struct IsPair<std::pair<A, B>> : std::true_type {};
template <class T>
struct IsUnorderedSet : std::false_type {};
template <class T, class H, class E, class Al>
struct IsUnorderedSet<std::unordered_set<T, H, E, Al>> : std::true_type {};
template <class T>
struct IsVariant : std::false_type {};
template <class... Ts>
struct IsVariant<std::variant<Ts...>> : std::true_type {};

}  // namespace state_internal

template <class T>
concept HasStateList = requires(std::remove_const_t<T>& x,
                                state_internal::ListProbe& v) {
  std::remove_const_t<T>::VisitState(x, v);
};

// A component is descended into, never copied: a list-bearing class that
// cannot be copied, or a unique_ptr (or vector of them) to one.
template <class T>
constexpr bool IsComponent() {
  using U = std::remove_const_t<T>;
  if constexpr (state_internal::IsUniquePtr<U>::value) {
    return true;
  } else if constexpr (requires { typename U::value_type; }) {
    return state_internal::IsUniquePtr<typename U::value_type>::value;
  } else {
    return HasStateList<U> && !std::is_copy_constructible_v<U>;
  }
}

// Calls f on each component object `x` holds (none for a null pointer).
template <class T, class F>
void ForEachComponent(T& x, F&& f) {
  using U = std::remove_const_t<T>;
  if constexpr (state_internal::IsUniquePtr<U>::value) {
    if (x != nullptr) f(*x);
  } else if constexpr (HasStateList<U>) {
    f(x);
  } else {
    for (auto& element : x) ForEachComponent(element, f);
  }
}

template <class T, class V>
void VisitList(T& x, V& v) {
  std::remove_const_t<T>::VisitState(x, v);
}

// --- snapshot ---------------------------------------------------------------

// The member-wise copies a snapshot visit takes, in visit order. A deque,
// so appending never moves the copies already taken.
using StateSnapshot = std::deque<std::any>;

class StateSaver : public StateVisitor<StateSaver> {
 public:
  explicit StateSaver(StateSnapshot* out) : out_(out) {}

  template <StateTag tag, class T, class A>
  void Entry(const char*, const T& x, A) {
    if constexpr (requires { A::Save(x); }) {
      out_->emplace_back(A::Save(x));
    } else if constexpr (tag == StateTag::kFixed) {
    } else if constexpr (IsComponent<T>()) {
      ForEachComponent(x, [this](const auto& c) { VisitList(c, *this); });
    } else {
      out_->emplace_back(x);
    }
  }

 private:
  StateSnapshot* out_;
};

class StateRestorer : public StateVisitor<StateRestorer> {
 public:
  explicit StateRestorer(const StateSnapshot& in) : in_(in) {}

  template <StateTag tag, class T, class A>
  void Entry(const char*, T& x, A) {
    if constexpr (requires { A::Save(x); }) {
      using Saved = decltype(A::Save(x));
      A::Restore(x, std::any_cast<const Saved&>(in_[next_++]));
    } else if constexpr (tag == StateTag::kFixed) {
    } else if constexpr (IsComponent<T>()) {
      ForEachComponent(x, [this](auto& c) { VisitList(c, *this); });
    } else {
      x = std::any_cast<const T&>(in_[next_++]);
    }
  }

  bool AtEnd() const { return next_ == in_.size(); }

 private:
  const StateSnapshot& in_;
  size_t next_ = 0;
};

// --- undo -------------------------------------------------------------------

class UndoCapture : public StateVisitor<UndoCapture> {
 public:
  // `full` eras capture logs by value instead of by tail.
  UndoCapture(UndoLog& log, bool full) : log_(log), full_(full) {}

  template <StateTag tag, class T, class A>
  void Entry(const char*, T& x, A) {
    if constexpr (requires { A::Capture(log_, x); }) {
      A::Capture(log_, x);
    } else if constexpr (tag == StateTag::kFixed) {
    } else if constexpr (tag == StateTag::kLog) {
      if (full_) {
        log_.CaptureValue(&x);
      } else {
        log_.CaptureTail(&x);
      }
    } else {
      log_.CaptureValue(&x);
    }
  }

 private:
  UndoLog& log_;
  bool full_;
};

// Records `x`'s list into `log`: the body of every CaptureUndo entry
// point, after its detached-log test.
template <class T>
void CaptureState(UndoLog& log, T& x, bool full = false) {
  UndoCapture capture(log, full);
  VisitList(x, capture);
}

// --- checkpoint codec -------------------------------------------------------

template <class W>
class StateEncoder : public StateVisitor<StateEncoder<W>> {
 public:
  // `apart`, if set, is a member the encoding leaves out (the warehouse's
  // cut keeps its view apart, as a base plus deltas).
  explicit StateEncoder(W& w, const void* apart = nullptr)
      : w_(w), apart_(apart) {}

  template <StateTag tag, class T, class A>
  void Entry(const char*, const T& x, A) {
    if (static_cast<const void*>(&x) == apart_) return;
    if constexpr (tag == StateTag::kLog) {
      w_.WriteI64(static_cast<int64_t>(x.size()));
    } else if constexpr (tag != StateTag::kFixed &&
                         tag != StateTag::kDurable) {
      Encode(x);
    }
  }

  template <class T>
  void Encode(const T& x) {
    if constexpr (std::is_enum_v<T>) {
      w_.WriteU8(static_cast<uint8_t>(x));
    } else if constexpr (std::is_same_v<T, bool>) {
      w_.WriteBool(x);
    } else if constexpr (std::is_same_v<T, int>) {
      w_.WriteI32(x);
    } else if constexpr (std::is_integral_v<T>) {
      w_.WriteI64(static_cast<int64_t>(x));
    } else if constexpr (std::is_same_v<T, std::string>) {
      w_.WriteString(x);
    } else if constexpr (requires { EncodeLeaf(w_, x); }) {
      EncodeLeaf(w_, x);
    } else if constexpr (HasStateList<T>) {
      VisitList(x, *this);
    } else if constexpr (state_internal::IsVariant<T>::value) {
      w_.WriteU8(static_cast<uint8_t>(x.index()));
      std::visit([this](const auto& alternative) { Encode(alternative); }, x);
    } else if constexpr (state_internal::IsOptional<T>::value) {
      w_.WriteBool(x.has_value());
      if (x.has_value()) Encode(*x);
    } else if constexpr (state_internal::IsPair<T>::value) {
      Encode(x.first);
      Encode(x.second);
    } else if constexpr (state_internal::IsUnorderedSet<T>::value) {
      std::vector<typename T::value_type> sorted(x.begin(), x.end());
      std::sort(sorted.begin(), sorted.end());
      Encode(sorted);
    } else {
      w_.WriteI64(static_cast<int64_t>(x.size()));
      for (const auto& element : x) Encode(element);
    }
  }

 private:
  W& w_;
  const void* apart_;
};

template <class R>
class StateDecoder : public StateVisitor<StateDecoder<R>> {
 public:
  // `apart` as for StateEncoder: a member the bytes do not hold.
  explicit StateDecoder(R& r, const void* apart = nullptr)
      : r_(r), apart_(apart) {}

  template <StateTag tag, class T, class A>
  void Entry(const char* name, T& x, A) {
    if (static_cast<const void*>(&x) == apart_) return;
    if constexpr (tag == StateTag::kLog) {
      Truncate(name, x, r_.ReadI64());
    } else if constexpr (tag != StateTag::kFixed &&
                         tag != StateTag::kDurable) {
      Decode(x);
    }
  }

  template <class T>
  void Decode(T& x) {
    if constexpr (std::is_enum_v<T>) {
      x = static_cast<T>(r_.ReadU8());
    } else if constexpr (std::is_same_v<T, bool>) {
      x = r_.ReadBool();
    } else if constexpr (std::is_same_v<T, int>) {
      x = r_.ReadI32();
    } else if constexpr (std::is_integral_v<T>) {
      x = static_cast<T>(r_.ReadI64());
    } else if constexpr (requires { DecodeLeaf(r_, x); }) {
      DecodeLeaf(r_, x);
    } else if constexpr (HasStateList<T>) {
      VisitList(x, *this);
    } else if constexpr (state_internal::IsVariant<T>::value) {
      DecodeAlternative(x, r_.ReadU8(),
                        std::make_index_sequence<std::variant_size_v<T>>());
    } else if constexpr (state_internal::IsOptional<T>::value) {
      x.reset();
      if (r_.ReadBool()) Decode(x.emplace());
    } else if constexpr (state_internal::IsPair<T>::value) {
      Decode(x.first);
      Decode(x.second);
    } else {
      x.clear();
      const int64_t count = r_.ReadI64();
      SWEEP_CHECK_MSG(count >= 0, "checkpoint records a negative count");
      for (int64_t i = 0; i < count; ++i) {
        if constexpr (requires { typename T::mapped_type; }) {
          std::pair<typename T::key_type, typename T::mapped_type> entry;
          Decode(entry);
          x.insert(std::move(entry));
        } else {
          typename T::value_type element{};
          Decode(element);
          if constexpr (requires { x.push_back(element); }) {
            x.push_back(std::move(element));
          } else {
            x.insert(std::move(element));
          }
        }
      }
    }
  }

 private:
  // Emplaces alternative `index` of the variant `x` and decodes into it.
  // An index past the last alternative is not a value of this type.
  template <class T, size_t... I>
  void DecodeAlternative(T& x, size_t index, std::index_sequence<I...>) {
    SWEEP_CHECK_MSG(index < sizeof...(I),
                    ("checkpoint records alternative " +
                     std::to_string(index) + " of a variant of " +
                     std::to_string(sizeof...(I)))
                        .c_str());
    ((index == I ? Decode(x.template emplace<I>()) : void()), ...);
  }

  // Cuts the live log `x` back to the `length` a checkpoint recorded. A
  // shorter live log is not this checkpoint's history: the restore aborts
  // rather than invent the missing entries.
  template <class T>
  void Truncate(const char* name, T& x, int64_t length) {
    SWEEP_CHECK_MSG(
        length >= 0 && static_cast<size_t>(length) <= x.size(),
        (std::string("checkpoint records ") + std::to_string(length) +
         " entries of the log " + name + ", but the live log holds " +
         std::to_string(x.size()))
            .c_str());
    x.erase(x.begin() + static_cast<std::ptrdiff_t>(length), x.end());
  }

  R& r_;
  const void* apart_;
};

// --- fingerprint ------------------------------------------------------------

// Canonical mode (`exact` false) is the explorer's dedup key: it leaves
// out History members, and adapters drop schedule history (the pending
// events' sequence numbers). Exact mode keeps everything; with a
// text-keeping hasher it is the round-trip oracle's debug dump. The
// digest sees no tags, so every variable-shape value writes its shape
// first: a container its length, an optional or a pointer a presence
// flag, a variant its alternative index, a relation its distinct size
// (see common/fingerprint.h).
class StateHashVisitor : public StateVisitor<StateHashVisitor> {
 public:
  StateHashVisitor(StateHasher& h, bool exact) : h_(h), exact_(exact) {}

  template <StateTag tag, class T, class A>
  void Entry(const char* name, const T& x, A) {
    if constexpr (requires { A::Hash(h_, name, x, exact_); }) {
      A::Hash(h_, name, x, exact_);
    } else if constexpr (tag == StateTag::kFixed) {
    } else {
      if (tag == StateTag::kHistory && !exact_) return;
      Absorb(name, x);
    }
  }

  template <class T>
  void Absorb(const char* name, const T& x) {
    if constexpr (std::is_same_v<T, bool>) {
      h_.Bool(name, x);
    } else if constexpr (std::is_enum_v<T> || std::is_unsigned_v<T>) {
      h_.U64(name, static_cast<uint64_t>(x));
    } else if constexpr (std::is_integral_v<T>) {
      h_.I64(name, x);
    } else if constexpr (std::is_same_v<T, std::string>) {
      h_.Str(name, x);
    } else if constexpr (requires { HashLeaf(h_, name, x); }) {
      HashLeaf(h_, name, x);
    } else if constexpr (HasStateList<T>) {
      VisitList(x, *this);
    } else if constexpr (state_internal::IsUniquePtr<T>::value ||
                         state_internal::IsSharedPtr<T>::value) {
      h_.Bool(name, x != nullptr);
      if (x != nullptr) Absorb(name, *x);
    } else if constexpr (state_internal::IsVariant<T>::value) {
      h_.U64(name, x.index());
      std::visit([&](const auto& alternative) { Absorb(name, alternative); },
                 x);
    } else if constexpr (state_internal::IsOptional<T>::value) {
      h_.Bool(name, x.has_value());
      if (x.has_value()) Absorb(name, *x);
    } else if constexpr (state_internal::IsPair<T>::value) {
      Absorb(name, x.first);
      Absorb(name, x.second);
    } else if constexpr (state_internal::IsUnorderedSet<T>::value) {
      std::vector<typename T::value_type> sorted(x.begin(), x.end());
      std::sort(sorted.begin(), sorted.end());
      Absorb(name, sorted);
    } else {
      h_.U64(name, x.size());
      for (const auto& element : x) Absorb(name, element);
    }
  }

 private:
  StateHasher& h_;
  bool exact_;
};

// A reference to one of a closed set of visitors, for handing a list
// visit across a virtual call (the warehouse's algorithm half).
template <class... Vs>
class AnyStateVisitor {
 public:
  template <class V>
    requires(std::is_same_v<V, Vs> || ...)
  AnyStateVisitor(V& v) : v_(&v) {}

  template <class Self>
  void Visit(Self& self) const {
    std::visit([&](auto* v) { VisitList(self, *v); }, v_);
  }

 private:
  std::variant<Vs*...> v_;
};

}  // namespace sweepmv

#endif  // SWEEPMV_COMMON_STATE_H_

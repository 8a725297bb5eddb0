// InlineFn: a fixed-capacity, heap-free replacement for std::function.
//
// The steady-state event loop schedules millions of closures per run;
// with std::function each closure whose captures exceed the library's
// small-buffer (16 bytes on libstdc++) costs one heap allocation plus a
// later free. InlineFn stores the callable *inline* in a fixed buffer
// and refuses — at compile time — any callable that does not fit, so
// the hot path provably never touches the allocator. There is no heap
// fallback: a capture that outgrows the buffer is a build error, which
// keeps capture sizes an explicit, reviewed budget (see
// docs/PERFORMANCE.md for the per-callback capacity table).
//
// Semantics match the std::function subset the engine uses: copyable,
// movable, nullable, bool-testable. Assigning a callable builds it
// straight into the buffer, so storage that outlives the call site (an
// event slot, a CPU job slot) takes a lambda without relocating it. The target must be copy
// constructible and nothrow move constructible (every engine capture is:
// raw pointers, PoolRef handles, PODs, SSO strings). A moved-from
// InlineFn is empty. Invoking an empty InlineFn is undefined (asserted
// in debug builds), exactly like calling through a null function pointer.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace ntier::sim {

// Default inline capacity (bytes) for engine callbacks. 48 bytes holds
// `this` plus up to five pointer/handle captures — every steady-state
// closure in the simulator fits (static_assert-enforced per call site).
inline constexpr std::size_t kInlineFnCapacity = 48;

// Primary template; only the R(Args...) partial specialization exists.
template <class Signature, std::size_t Capacity = kInlineFnCapacity>
class InlineFn;

// The real InlineFn: callable wrapper with `Capacity` bytes of inline
// storage and no heap fallback.
template <class R, class... Args, std::size_t Capacity>
class InlineFn<R(Args...), Capacity> {
  // The callables the wrapping constructor and assignment take: any
  // target invocable as R(Args...) that is not an InlineFn itself.
  template <class F>
  static constexpr bool kWraps = !std::is_same_v<std::decay_t<F>, InlineFn> &&
                                 std::is_invocable_r_v<R, std::decay_t<F>&, Args...>;

 public:
  // Empty function objects: pending() semantics mirror std::function.
  InlineFn() noexcept = default;
  InlineFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  // Wraps any callable `f` with sizeof(F) <= Capacity. Intentionally
  // implicit, so lambdas convert at call sites just like std::function.
  template <class F, class = std::enable_if_t<kWraps<F>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  // Replaces the target with `f`, built straight in this buffer: the
  // in-place form of `*this = InlineFn(f)`, which would build a
  // temporary and relocate it.
  template <class F, class = std::enable_if_t<kWraps<F>>>
  InlineFn& operator=(F&& f) {
    reset();
    emplace(std::forward<F>(f));
    return *this;
  }

  // Copy duplicates the target; move transfers it and empties the source.
  // A stored target with no manager is trivially copyable: both degrade
  // to copying the buffer.
  InlineFn(const InlineFn& o) : invoke_(o.invoke_), manage_(o.manage_) {
    if (manage_)
      manage_(Op::kCopyTo, const_cast<unsigned char*>(o.buf_), buf_);
    else if (invoke_)
      std::memcpy(buf_, o.buf_, Capacity);
  }
  InlineFn(InlineFn&& o) noexcept : invoke_(o.invoke_), manage_(o.manage_) {
    if (manage_)
      manage_(Op::kMoveTo, o.buf_, buf_);
    else if (invoke_)
      std::memcpy(buf_, o.buf_, Capacity);
    o.invoke_ = nullptr;
    o.manage_ = nullptr;
  }
  InlineFn& operator=(const InlineFn& o) {
    if (this != &o) {
      reset();
      invoke_ = o.invoke_;
      manage_ = o.manage_;
      if (manage_)
        manage_(Op::kCopyTo, const_cast<unsigned char*>(o.buf_), buf_);
      else if (invoke_)
        std::memcpy(buf_, o.buf_, Capacity);
    }
    return *this;
  }
  InlineFn& operator=(InlineFn&& o) noexcept {
    if (this != &o) {
      reset();
      invoke_ = o.invoke_;
      manage_ = o.manage_;
      if (manage_)
        manage_(Op::kMoveTo, o.buf_, buf_);
      else if (invoke_)
        std::memcpy(buf_, o.buf_, Capacity);
      o.invoke_ = nullptr;
      o.manage_ = nullptr;
    }
    return *this;
  }
  InlineFn& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  ~InlineFn() { reset(); }

  // Invokes the stored target (debug-asserted non-empty).
  R operator()(Args... args) const {
    assert(invoke_ && "invoking an empty InlineFn");
    return invoke_(buf_, std::forward<Args>(args)...);
  }

  // True when a target is stored.
  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  // Destroys the target, leaving the function empty.
  void reset() noexcept {
    if (manage_) manage_(Op::kDestroy, buf_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

 private:
  enum class Op : std::uint8_t { kDestroy, kMoveTo, kCopyTo };
  using Invoke = R (*)(void*, Args...);
  using Manage = void (*)(Op, void*, void*);

  // Builds `f` into the (empty) buffer and sets its trampolines.
  template <class F>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= Capacity,
                  "closure captures exceed this InlineFn's inline budget; "
                  "shrink the capture (pool the state and capture a handle)");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "over-aligned callables are not supported");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "InlineFn targets must be nothrow move constructible");
    static_assert(std::is_copy_constructible_v<Fn>,
                  "InlineFn targets must be copy constructible");
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    invoke_ = [](void* self, Args... args) -> R {
      return (*static_cast<Fn*>(self))(std::forward<Args>(args)...);
    };
    // Trivially copyable + destructible targets (the steady-state
    // closures: pointer/handle/POD captures) need no manager at all —
    // move and copy degrade to a fixed-size memcpy and destruction to
    // nothing, sparing the event loop an indirect call per transfer.
    if constexpr (!(std::is_trivially_copyable_v<Fn> &&
                    std::is_trivially_destructible_v<Fn>)) {
      manage_ = [](Op op, void* self, void* other) {
        switch (op) {
          case Op::kDestroy:
            static_cast<Fn*>(self)->~Fn();
            break;
          case Op::kMoveTo:
            ::new (other) Fn(std::move(*static_cast<Fn*>(self)));
            static_cast<Fn*>(self)->~Fn();
            break;
          case Op::kCopyTo:
            ::new (other) Fn(*static_cast<const Fn*>(self));
            break;
        }
      };
    }
  }

  alignas(std::max_align_t) mutable unsigned char buf_[Capacity];
  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;
};

}  // namespace ntier::sim

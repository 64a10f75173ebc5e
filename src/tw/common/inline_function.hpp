#pragma once
// Small-buffer-optimized move-only `void()` callables.
//
// The simulation kernel fires tens of millions of events per run; wrapping
// every callback in std::function costs one heap allocation (plus a free)
// per scheduled event. BasicInlineFunction stores the capture inline in a
// fixed buffer instead, and a capture larger than the buffer is a compile
// error: every call site (sim::Simulator::Callback, ThreadPool::Job) is
// statically guaranteed allocation-free. State too large to capture is
// parked in a ChunkPool and the callable captures its u32 id.
//
// Move-only by design: callbacks own their captures and are consumed by
// the queue that fires them; copying would silently duplicate state.

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace tw {

template <std::size_t Capacity>
class BasicInlineFunction {
 public:
  static constexpr std::size_t kCapacity = Capacity;

  BasicInlineFunction() = default;
  BasicInlineFunction(std::nullptr_t) {}  // NOLINT: implicit like std::function

  template <class F,
            class D = std::decay_t<F>,
            class = std::enable_if_t<
                !std::is_same_v<D, BasicInlineFunction> &&
                !std::is_same_v<D, std::nullptr_t> &&
                std::is_invocable_r_v<void, D&>>>
  BasicInlineFunction(F&& f) {  // NOLINT: implicit like std::function
    static_assert(sizeof(D) <= Capacity &&
                      alignof(D) <= alignof(std::max_align_t),
                  "callback capture exceeds the inline buffer; shrink the "
                  "capture (e.g. park the object in a ChunkPool and capture "
                  "its id) — callbacks are allocation-free by contract");
    ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
    ops_ = &InlineOpsFor<D>::ops;
  }

  BasicInlineFunction(BasicInlineFunction&& other) noexcept {
    move_from(std::move(other));
  }

  BasicInlineFunction& operator=(BasicInlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(std::move(other));
    }
    return *this;
  }

  BasicInlineFunction(const BasicInlineFunction&) = delete;
  BasicInlineFunction& operator=(const BasicInlineFunction&) = delete;

  ~BasicInlineFunction() { reset(); }

  /// Invoke the stored callable. Precondition: non-empty (checked where
  /// callbacks enter the system, not per fire — this is the hot path).
  void operator()() { ops_->invoke(storage_); }

  explicit operator bool() const { return ops_ != nullptr; }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* self);
    /// Move-construct dst's payload from src's and destroy src's.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* self);
  };

  template <class D>
  struct InlineOpsFor {
    static void invoke(void* s) { (*static_cast<D*>(s))(); }
    static void relocate(void* dst, void* src) {
      D* from = static_cast<D*>(src);
      ::new (dst) D(std::move(*from));
      from->~D();
    }
    static void destroy(void* s) { static_cast<D*>(s)->~D(); }
    static constexpr Ops ops{&invoke, &relocate, &destroy};
  };

  void move_from(BasicInlineFunction&& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte storage_[Capacity];
  const Ops* ops_ = nullptr;
};

template <std::size_t C>
inline bool operator==(const BasicInlineFunction<C>& f, std::nullptr_t) {
  return !f;
}
template <std::size_t C>
inline bool operator!=(const BasicInlineFunction<C>& f, std::nullptr_t) {
  return static_cast<bool>(f);
}

}  // namespace tw

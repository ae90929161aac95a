/**
 * @file
 * Small-buffer-optimized, move-only callable: the simulator's event
 * callback type.
 *
 * std::function imposes a heap allocation for any capture larger
 * than the (implementation-defined, typically 16-24 byte) inline
 * buffer, and its copy constructor clones that allocation. Both
 * costs land on the simulator's hottest path: every scheduled event
 * carries a callback. InlineFunction stores captures up to BufSize
 * bytes (default 64) inline, never copies, and relocates by moving
 * the capture. Oversized captures fall back to a single heap
 * allocation whose ownership is moved, not cloned.
 *
 * Contract differences from std::function:
 *  - move-only (copying an event callback is always a bug here);
 *  - invoking an empty InlineFunction panics instead of throwing
 *    std::bad_function_call.
 *
 * Ownership: an InlineFunction owns its capture outright (inline or
 * behind a moved unique heap allocation); destroying or reassigning
 * it destroys the capture.
 *
 * Thread-safety: none is provided or needed. A callback belongs to
 * the simulation domain whose EventQueue (or ParallelExecutor
 * mailbox) holds it, and is only constructed, moved, invoked, and
 * destroyed while that domain executes. Moving a callback across
 * domains via ParallelExecutor::send is safe because the executor
 * hands it over only at a window barrier.
 *
 * Determinism: invocation performs no allocation and no global
 * lookups; captures are plain moved state, so replaying the same
 * schedule replays identical behavior.
 */

#ifndef SSDRR_SIM_CALLBACK_HH
#define SSDRR_SIM_CALLBACK_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/logging.hh"

namespace ssdrr::sim {

template <typename Signature, std::size_t BufSize = 64>
class InlineFunction;

template <typename R, typename... Args, std::size_t BufSize>
class InlineFunction<R(Args...), BufSize>
{
  public:
    InlineFunction() noexcept = default;
    InlineFunction(std::nullptr_t) noexcept {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                  !std::is_same_v<std::decay_t<F>, std::nullptr_t> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    InlineFunction(F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
            ops_ = &inlineOps<Fn>;
        } else {
            *reinterpret_cast<Fn **>(buf_) = new Fn(std::forward<F>(f));
            ops_ = &heapOps<Fn>;
        }
    }

    InlineFunction(InlineFunction &&o) noexcept { moveFrom(o); }

    InlineFunction &
    operator=(InlineFunction &&o) noexcept
    {
        if (this != &o) {
            reset();
            moveFrom(o);
        }
        return *this;
    }

    InlineFunction &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { reset(); }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    R
    operator()(Args... args)
    {
        SSDRR_ASSERT(ops_ != nullptr, "invoking an empty InlineFunction");
        return ops_->invoke(buf_, std::forward<Args>(args)...);
    }

    /** True if the held capture lives in the inline buffer. */
    bool
    storedInline() const noexcept
    {
        return ops_ != nullptr && ops_->inlineStorage;
    }

  private:
    struct Ops {
        R (*invoke)(void *storage, Args &&...args);
        /** Move-construct into @p dst's storage, destroy @p src. */
        void (*relocate)(void *src, void *dst) noexcept;
        void (*destroy)(void *storage) noexcept;
        bool inlineStorage;
    };

    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= BufSize &&
               alignof(Fn) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

    template <typename Fn>
    static inline const Ops inlineOps = {
        /*invoke=*/
        [](void *s, Args &&...args) -> R {
            return (*std::launder(reinterpret_cast<Fn *>(s)))(
                std::forward<Args>(args)...);
        },
        /*relocate=*/
        [](void *src, void *dst) noexcept {
            Fn *f = std::launder(reinterpret_cast<Fn *>(src));
            ::new (dst) Fn(std::move(*f));
            f->~Fn();
        },
        /*destroy=*/
        [](void *s) noexcept {
            std::launder(reinterpret_cast<Fn *>(s))->~Fn();
        },
        /*inlineStorage=*/true,
    };

    template <typename Fn>
    static inline const Ops heapOps = {
        /*invoke=*/
        [](void *s, Args &&...args) -> R {
            return (**reinterpret_cast<Fn **>(s))(
                std::forward<Args>(args)...);
        },
        /*relocate=*/
        [](void *src, void *dst) noexcept {
            *reinterpret_cast<Fn **>(dst) = *reinterpret_cast<Fn **>(src);
        },
        /*destroy=*/
        [](void *s) noexcept { delete *reinterpret_cast<Fn **>(s); },
        /*inlineStorage=*/false,
    };

    void
    moveFrom(InlineFunction &o) noexcept
    {
        if (o.ops_) {
            o.ops_->relocate(o.buf_, buf_);
            ops_ = o.ops_;
            o.ops_ = nullptr;
        }
    }

    void
    reset() noexcept
    {
        if (ops_) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf_[BufSize];
    const Ops *ops_ = nullptr;
};

/** The event queue's callback type: 64 bytes of inline capture. */
using InlineCallback = InlineFunction<void()>;

} // namespace ssdrr::sim

#endif // SSDRR_SIM_CALLBACK_HH

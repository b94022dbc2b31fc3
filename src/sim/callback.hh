/**
 * @file
 * Move-only type-erased callable with inline storage.
 *
 * std::function's small-buffer optimisation (16 bytes in libstdc++)
 * is too small for the simulator's hottest closures — a network
 * delivery event captures this + handler + tick + ledger id + a
 * shared_ptr (48 bytes) — so every delivery paid a heap allocation
 * just to store its callback. InlineCallback widens the inline
 * buffer to 64 bytes; a callback that fits lives inside the
 * EventQueue's pool-allocated event node. Oversized callables still
 * work (heap fallback), they are just not free.
 *
 * Move-only on purpose: event callbacks are scheduled once and fired
 * once, and dropping copyability lets captures hold move-only state.
 */

#ifndef WB_SIM_CALLBACK_HH
#define WB_SIM_CALLBACK_HH

#include <cstddef>
#include <type_traits>
#include <utility>

namespace wb
{

class InlineCallback
{
    static constexpr std::size_t bufSize = 64;

    struct Ops
    {
        void (*invoke)(void *);
        /** Move-construct into @p dst from @p src, destroy src. */
        void (*relocate)(void *dst, void *src);
        void (*destroy)(void *);
    };

    template <typename F>
    struct InlineOps
    {
        static void invoke(void *p) { (*static_cast<F *>(p))(); }
        static void
        relocate(void *dst, void *src)
        {
            ::new (dst) F(std::move(*static_cast<F *>(src)));
            static_cast<F *>(src)->~F();
        }
        static void destroy(void *p) { static_cast<F *>(p)->~F(); }
        static constexpr Ops ops{&invoke, &relocate, &destroy};
    };

    template <typename F>
    struct HeapOps
    {
        static F *&slot(void *p) { return *static_cast<F **>(p); }
        static void invoke(void *p) { (*slot(p))(); }
        static void
        relocate(void *dst, void *src)
        {
            *static_cast<F **>(dst) = slot(src);
        }
        static void destroy(void *p) { delete slot(p); }
        static constexpr Ops ops{&invoke, &relocate, &destroy};
    };

  public:
    /** Whether a callable of type F is stored without a heap
     *  allocation. */
    template <typename F>
    static constexpr bool fitsInline =
        sizeof(F) <= bufSize &&
        alignof(F) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<F>;

    InlineCallback() = default;
    InlineCallback(std::nullptr_t) {}

    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, InlineCallback> &&
                  std::is_invocable_v<D &>>>
    InlineCallback(F &&f)
    {
        if constexpr (fitsInline<D>) {
            ::new (static_cast<void *>(_buf)) D(std::forward<F>(f));
            _ops = &InlineOps<D>::ops;
        } else {
            *reinterpret_cast<D **>(_buf) = new D(std::forward<F>(f));
            _ops = &HeapOps<D>::ops;
        }
    }

    InlineCallback(InlineCallback &&o) noexcept { moveFrom(o); }

    InlineCallback &
    operator=(InlineCallback &&o) noexcept
    {
        if (this != &o) {
            reset();
            moveFrom(o);
        }
        return *this;
    }

    InlineCallback &
    operator=(std::nullptr_t)
    {
        reset();
        return *this;
    }

    InlineCallback(const InlineCallback &) = delete;
    InlineCallback &operator=(const InlineCallback &) = delete;

    ~InlineCallback() { reset(); }

    explicit operator bool() const { return _ops != nullptr; }

    void operator()() { _ops->invoke(_buf); }

  private:
    void
    moveFrom(InlineCallback &o)
    {
        _ops = o._ops;
        if (_ops) {
            _ops->relocate(_buf, o._buf);
            o._ops = nullptr;
        }
    }

    void
    reset()
    {
        if (_ops) {
            _ops->destroy(_buf);
            _ops = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char _buf[bufSize];
    const Ops *_ops = nullptr;
};

} // namespace wb

#endif // WB_SIM_CALLBACK_HH

/**
 * @file
 * A small-buffer-optimized, move-only std::function replacement for
 * the simulation hot path.
 *
 * Every scheduled event and every DMA completion used to pay a heap
 * allocation through std::function's type erasure (libstdc++ inlines
 * only captures up to 16 bytes). The simulator's closures are almost
 * all "a this pointer, an epoch, a DMA handle, a couple of words" —
 * comfortably under 88 bytes — so InlineFunction stores them in-place
 * and the event kernel never touches the allocator on the hot path.
 * Oversized captures transparently fall back to the heap, so cold
 * control-plane code (MMIO emulation, scheduler bookkeeping) may keep
 * fat closures without any special casing.
 *
 * Differences from std::function, chosen for the kernel:
 *  - move-only (events are consumed exactly once; copying a closure
 *    into the queue is never needed and would hide allocations);
 *  - no target_type()/target() introspection;
 *  - invoking an empty InlineFunction is a simulator bug (panics).
 *
 * Moves pick the cheapest correct mechanism per stored type, decided
 * once at construction via the vtable:
 *  - trivially copyable inline targets (this pointers, integers,
 *    epochs — the hot-path majority) relocate with a raw whole-buffer
 *    memcpy: a handful of wide stores, no indirect call;
 *  - all other inline targets (closures holding a DmaTxnPtr, a nested
 *    InlineFunction, std::string, containers, ...) relocate through a
 *    per-type move-construct + destroy thunk, so types with interior
 *    self-pointers (std::string's SSO buffer, std::map's header node,
 *    libstdc++ unordered_map's bucket cache) are moved correctly —
 *    capturing them is safe, never silent UB;
 *  - heap-backed targets memcpy the owning pointer.
 * Inline storage additionally requires a noexcept move constructor
 * (queue moves happen inside noexcept paths); throwing-move types
 * fall back to the heap, where moving is always pointer-copy.
 */

#ifndef OPTIMUS_SIM_INLINE_FUNCTION_HH
#define OPTIMUS_SIM_INLINE_FUNCTION_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/logging.hh"

namespace optimus::sim {

/** Default inline-capture capacity (bytes) for event callbacks.
 *  Sized to the largest hot queue-bound capture (the IOMMU's IOTLB
 *  hit continuation: an 8 B frame plus a 56 B completion object).
 *  It sets the size of an event-queue pool slot (72 B with the vtable
 *  pointer), where the kernel builds each closure once and runs it;
 *  a tight capacity keeps each live slot to a couple of cache
 *  lines. */
inline constexpr std::size_t kEventCaptureBytes = 64;

/** Inline capacity for nested completion handlers. Chosen so that a
 *  completion plus a small wrapping frame still fits a
 *  kEventCaptureBytes event: 56 B object + 8 B context <= 64 B. */
inline constexpr std::size_t kCompletionCaptureBytes = 48;

template <typename Signature,
          std::size_t Capacity = kEventCaptureBytes>
class InlineFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity>
{
  public:
    InlineFunction() noexcept = default;
    InlineFunction(std::nullptr_t) noexcept {}

    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, InlineFunction> &&
                  std::is_invocable_r_v<R, D &, Args...>>>
    InlineFunction(F &&f)
    {
        construct(std::forward<F>(f));
    }

    InlineFunction(InlineFunction &&other) noexcept
        : _vt(other._vt)
    {
        relocateFrom(other);
    }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            _vt = other._vt;
            relocateFrom(other);
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

    /**
     * Replace the target with @p f, constructed in place — no
     * temporary InlineFunction and no relocation. The event kernel
     * builds every scheduled closure straight into its pool slot this
     * way. An InlineFunction argument (rvalue only) is moved in.
     */
    template <typename F>
    void
    emplace(F &&f)
    {
        using D = std::decay_t<F>;
        if constexpr (std::is_same_v<D, InlineFunction>) {
            static_assert(!std::is_lvalue_reference_v<F>,
                          "move an InlineFunction into emplace()");
            *this = std::move(f);
        } else {
            static_assert(std::is_invocable_r_v<R, D &, Args...>,
                          "emplace() needs a callable of this "
                          "signature");
            reset();
            construct(std::forward<F>(f));
        }
    }

    explicit operator bool() const noexcept { return _vt != nullptr; }

    /**
     * Invoke the stored callable. Like std::function, invocation is
     * const-qualified but runs the target as non-const.
     */
    R
    operator()(Args... args) const
    {
        OPTIMUS_ASSERT(_vt != nullptr,
                       "invoking an empty InlineFunction");
        return _vt->invoke(const_cast<unsigned char *>(_buf),
                           std::forward<Args>(args)...);
    }

    /**
     * Invoke the stored callable exactly once and destroy it, leaving
     * this empty — one indirect call instead of the invoke + destroy
     * pair a dispatch-then-drop sequence would pay. Only for
     * one-shot consumers (the event kernel); R must be void.
     */
    void
    consume(Args... args)
    {
        static_assert(std::is_void_v<R>,
                      "consume() discards the return value");
        OPTIMUS_ASSERT(_vt != nullptr,
                       "consuming an empty InlineFunction");
        const VTable *vt = _vt;
        _vt = nullptr;
        vt->consume(_buf, std::forward<Args>(args)...);
    }

    /** Whether a callable of type F would be stored without a heap
     *  allocation (exposed so tests can pin the no-allocation rule). */
    template <typename F>
    static constexpr bool
    fitsInline()
    {
        using D = std::decay_t<F>;
        // noexcept move required: non-trivial inline targets relocate
        // through a move-construct thunk inside noexcept queue moves.
        return sizeof(D) <= Capacity && alignof(D) <= kAlign &&
               std::is_nothrow_move_constructible_v<D>;
    }

  private:
    /** Maximum supported capture alignment. Every hot capture is
     *  pointer/word material (8-aligned); keeping the buffer at 8
     *  avoids a padding word between the vtable pointer and the
     *  buffer, so a nested InlineFunction plus a word of context
     *  packs exactly into the enclosing capacity tiers. Over-aligned
     *  captures are routed to the heap by fitsInline(). */
    static constexpr std::size_t kAlign = 8;

    struct VTable
    {
        R (*invoke)(void *, Args &&...);
        void (*destroy)(void *) noexcept;
        void (*consume)(void *, Args &&...);
        /** Move the target from @p src into raw storage @p dst and
         *  destroy the source. Null when a whole-buffer memcpy is the
         *  correct relocation (trivially copyable inline targets and
         *  heap-backed targets, where it copies the owning pointer) —
         *  the hot-path majority, which therefore never pays an
         *  indirect call per move. */
        void (*relocate)(void *dst, void *src) noexcept;
    };

    template <typename D>
    struct InlineOps
    {
        static R
        invoke(void *p, Args &&...args)
        {
            return (*static_cast<D *>(p))(
                std::forward<Args>(args)...);
        }
        static void
        destroy(void *p) noexcept
        {
            static_cast<D *>(p)->~D();
        }
        static void
        consume(void *p, Args &&...args)
        {
            D *d = static_cast<D *>(p);
            (*d)(std::forward<Args>(args)...);
            d->~D();
        }
        static void
        relocate(void *dst, void *src) noexcept
        {
            D *s = static_cast<D *>(src);
            ::new (dst) D(std::move(*s));
            s->~D();
        }
        static constexpr VTable kVt{
            &invoke, &destroy, &consume,
            std::is_trivially_copyable_v<D> ? nullptr : &relocate};
    };

    template <typename D>
    struct HeapOps
    {
        static R
        invoke(void *p, Args &&...args)
        {
            return (**static_cast<D **>(p))(
                std::forward<Args>(args)...);
        }
        static void
        destroy(void *p) noexcept
        {
            delete *static_cast<D **>(p);
        }
        static void
        consume(void *p, Args &&...args)
        {
            D *d = *static_cast<D **>(p);
            (*d)(std::forward<Args>(args)...);
            delete d;
        }
        static constexpr VTable kVt{&invoke, &destroy, &consume,
                                    nullptr};
    };

    /** Build the target from @p f into this (empty) object. */
    template <typename F>
    void
    construct(F &&f)
    {
        using D = std::decay_t<F>;
        if constexpr (fitsInline<D>()) {
            ::new (static_cast<void *>(_buf)) D(std::forward<F>(f));
            _vt = &InlineOps<D>::kVt;
        } else {
            *reinterpret_cast<D **>(_buf) = new D(std::forward<F>(f));
            _vt = &HeapOps<D>::kVt;
        }
    }

    /** Move the target out of @p other (whose vtable this already
     *  holds) into our buffer and leave @p other empty. */
    void
    relocateFrom(InlineFunction &other) noexcept
    {
        if (_vt && _vt->relocate) {
            _vt->relocate(_buf, other._buf);
        } else {
            // Trivial relocation: the whole buffer is copied so the
            // move compiles to a handful of wide stores. Bytes past
            // the stored object are indeterminate and never read
            // through a typed pointer; the blanket copy keeps the
            // copy length a compile-time constant, so the
            // whole-buffer read is intentional.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
            __builtin_memcpy(_buf, other._buf, Capacity);
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
        }
        other._vt = nullptr;
    }

    void
    reset() noexcept
    {
        if (_vt) {
            _vt->destroy(_buf);
            _vt = nullptr;
        }
    }

    const VTable *_vt = nullptr;
    alignas(kAlign) unsigned char _buf[Capacity];
};

} // namespace optimus::sim

#endif // OPTIMUS_SIM_INLINE_FUNCTION_HH

/**
 * @file
 * The discrete-event simulation kernel.
 *
 * Every timed component in the platform model (links, multiplexers,
 * IOMMU, accelerators, hypervisor timers) schedules closures on a
 * shared EventQueue. Events at the same tick execute in scheduling
 * order (FIFO), which keeps the simulation deterministic.
 *
 * One queue runs a whole simulation: a lone hv::System owns one, and
 * every node of a fleet::Cluster runs on its cluster's. Only top-level
 * code advances it — runUntil()/runAll(), or pumpUntil() for a caller
 * that waits on simulated work — never an event.
 *
 * The queue is a three-level hierarchical calendar (timing wheel)
 * tuned for this simulator's event mix:
 *
 *  - a near-future ring of kRingSlots buckets, each covering
 *    kSlotSpan consecutive ticks, spanning the next ~2.1 us of
 *    simulated time (1 tick = 1 ps). Clock-edge re-arms, mux-tree
 *    hops, auditor latencies, IOTLB hits, link propagation, DRAM
 *    accesses and page walks — the events that dominate multi-tenant
 *    runs — land here with an O(1) append; a two-level occupancy
 *    bitmap finds the next non-empty slot in a couple of word
 *    operations, and the ring's entire working set (slot headers +
 *    a few hundred live events) stays cache-resident;
 *
 *  - a far ring of kFarSlots unsorted buckets, each spanning one
 *    full near window, covering the next ~537 us. A congested link's
 *    serialization horizon runs tens of us ahead of now, so its
 *    departure events land here — an O(1) append — and scatter
 *    linearly into the near ring when the window crosses into their
 *    span, never paying a per-event heap sift;
 *
 *  - a sorted overflow heap for everything beyond the far window
 *    (scheduler timeslices, preemption timeouts, idle wakeups). As
 *    the window advances, newly covered heap events drain into the
 *    far ring.
 *
 * Determinism invariant: execution order is exactly (tick, schedule
 * seq) — identical to a single sorted queue with FIFO tie-break.
 * Every event carries its seq; a slot is ordered by (tick, seq) once,
 * when draining reaches it (and only actually sorted when its appends
 * arrived out of order), so insertion and migration order are
 * irrelevant to execution order.
 *
 * Every level stores 24-byte (tick, seq, index) keys. The callbacks
 * themselves live in a chunked, address-stable pool: scheduleAt
 * builds a closure straight into a pool slot, window moves and sorts
 * shuffle only keys, and dispatch runs the closure in place. Callbacks
 * are small-buffer-optimized InlineFunctions: captures up to
 * kEventCaptureBytes (64 B) never touch the allocator.
 */

#ifndef OPTIMUS_SIM_EVENT_QUEUE_HH
#define OPTIMUS_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/inline_function.hh"
#include "sim/pool_alloc.hh"
#include "sim/types.hh"

namespace optimus::sim {

/**
 * A deterministic discrete-event queue.
 *
 * Ties are broken by insertion order so that components scheduled
 * earlier in program order run earlier in simulated time.
 */
class EventQueue
{
  public:
    using Callback = InlineFunction<void(), kEventCaptureBytes>;

    /**
     * Ticks covered by one near-ring slot (2^11 ticks ~= 2 ns),
     * slightly under one 400 MHz clock period (2500 ticks): a
     * component's consecutive clock edges land in different slots,
     * keeping per-slot populations small. Measured on the
     * multi-tenant benches, this geometry beats both finer slots
     * (more slot activations, colder slot-header cache) and coarser
     * ones (larger per-slot ordering work).
     */
    static constexpr std::uint32_t kSlotSpanBits = 11;
    static constexpr std::uint32_t kSlotSpan = 1u << kSlotSpanBits;
    /** Number of near-ring slots. */
    static constexpr std::uint32_t kRingBits = 10;
    static constexpr std::uint32_t kRingSlots = 1u << kRingBits;
    /**
     * Near-window coverage: 2^21 ticks (~2.1 us). Covers every
     * common one-shot delay in the platform — DRAM access (85 ns),
     * UPI/PCIe propagation (160/404 ns), a page walk (560 ns).
     */
    static constexpr Tick kWindowTicks =
        Tick(kRingSlots) << kSlotSpanBits;

    /**
     * Second wheel level: kFarSlots unsorted buckets, each spanning
     * one full near window, covering the next ~537 us. Congestion
     * backlog (a loaded link's serialization horizon reaches tens of
     * us) lands here with an O(1) append and scatters linearly into
     * the near ring when the window crosses into its span — no
     * per-event heap sift. Only genuinely long timers (scheduler
     * timeslices, preemption timeouts) reach the overflow heap.
     */
    static constexpr std::uint32_t kFarBits = 8;
    static constexpr std::uint32_t kFarSlots = 1u << kFarBits;
    static constexpr std::uint32_t kFarShift =
        kSlotSpanBits + kRingBits;
    static constexpr Tick kFarWindowTicks = Tick(kFarSlots)
                                            << kFarShift;

    EventQueue()
        : _buckets(kRingSlots), _slotInOrder(kRingSlots, 1),
          _farBuckets(kFarSlots)
    {}

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * The simulation context's block-recycling arena. The queue is
     * the root object of one simulation context (a lone hv::System,
     * or a whole fleet::Cluster), so it hosts the context-local
     * allocator state; components reach it through their EventQueue
     * reference. Destroyed with the queue — i.e. after every
     * component of the context — so pooled blocks released during
     * teardown still have a home.
     */
    PoolArena &arena() { return _arena; }

    /**
     * Schedule @p f at absolute tick @p when.
     *
     * Contract: @p when must be >= now(); the simulation cannot
     * rewrite history. A violation panics in debug builds (NDEBUG
     * unset) and is clamped to now() in release builds, which keeps
     * long calibration runs alive if a component model drifts while
     * still executing the event as early as possible.
     *
     * The closure is constructed once, straight into a callback-pool
     * slot, and never moves again; only its 24-byte key is placed.
     * The dominant case — a near-window append into a slot that is
     * not mid-drain — is inline; everything else tail-calls the
     * out-of-line slow path.
     */
    template <typename F>
    void
    scheduleAt(Tick when, F &&f)
    {
        enqueue(when, _pool.emplace(std::forward<F>(f)));
    }

    /** Schedule @p f @p delay ticks from now. */
    template <typename F>
    void
    scheduleIn(Tick delay, F &&f)
    {
        scheduleAt(_now + delay, std::forward<F>(f));
    }

    /** Whether any events remain. */
    bool empty() const { return _size == 0; }

    /** Number of pending events. */
    std::size_t pending() const { return _size; }

    /**
     * Callback-pool slots handed out over the queue's lifetime (its
     * high-water mark of closures alive at once: pending events and
     * the one running). Freed slots are reused first, so the pool
     * grows only when that many are held.
     */
    std::uint32_t callbackSlots() const { return _pool.slots(); }

    /**
     * Tick of the next pending event; kTickForever if none. O(1): the
     * queue caches it. Every enqueue lowers the cache, runUntil sets
     * it where it stops and runOne rescans it after its event. While
     * an event runs it may lag the queue, so only top-level code (a
     * fleet's window loop) and tests read it. Debug builds check the
     * cache against a full scan on every read.
     */
    Tick
    nextEventTick() const
    {
#ifndef NDEBUG
        OPTIMUS_ASSERT(_nextTick == scanNextTick(),
                       "stale next-event tick (%llu, queue holds %llu)",
                       static_cast<unsigned long long>(_nextTick),
                       static_cast<unsigned long long>(scanNextTick()));
#endif
        return _nextTick;
    }

    /**
     * Execute the single next event, advancing time to it.
     * @retval true an event ran; false the queue was empty.
     */
    bool runOne();

    /**
     * Run all events with tick <= @p limit, then advance time to
     * @p limit. Events scheduled during execution are honored. A stop
     * request (requestStop) returns right after the event that made
     * it, with time left at that event's tick. Calling it, or
     * runAll(), from inside an event is fatal.
     * @return number of events executed.
     */
    std::uint64_t runUntil(Tick limit);

    /**
     * Ask the runUntil() or runAll() in progress to return right
     * after the running event: a pump's waiter calls it from the
     * event that may satisfy the pump. Each run starts without one.
     */
    void requestStop() { _stopRequested = true; }

    /**
     * Run until the queue drains or a stop is requested; time stays
     * at the last event's tick.
     * @return number of events executed.
     */
    std::uint64_t runAll() { return drain(kTickForever); }

    /**
     * Run until @p stop() holds: how a synchronous caller (the guest
     * API, svc::ServicePlane::run) waits on simulated work. @p stop()
     * is evaluated up front and after each stop request, so every
     * caller names the event that may satisfy it (requestStop);
     * between two evaluations the queue runs as runAll() does.
     * @retval true @p stop() became true; false the queue drained
     * first (a deadlock from the caller's point of view).
     *
     * Fatal from inside an event, and while another top-level loop
     * holds the queue (TopLevel): from a pump's own predicate or from
     * a fleet's barrier work.
     */
    bool pumpUntil(const std::function<bool()> &stop);

    /**
     * A top-level loop's claim on the queue for its lifetime:
     * pumpUntil() and fleet::Cluster::run() hold one. Claiming it
     * from inside an event, or while another loop holds it, is fatal:
     * only top-level code advances the simulation.
     */
    class TopLevel
    {
      public:
        TopLevel(EventQueue &q, const char *who);
        ~TopLevel() { _q._holder = nullptr; }
        TopLevel(const TopLevel &) = delete;
        TopLevel &operator=(const TopLevel &) = delete;

      private:
        EventQueue &_q;
    };

    /** Total events executed over the queue's lifetime. */
    std::uint64_t executed() const { return _executed; }

    /** runUntil()/runAll() calls that executed at least one event:
     *  a lone System's runs and a pump's iterations, or a fleet's
     *  windows. */
    std::uint64_t runs() const { return _runs; }

  private:
    /** First member on purpose: destroyed after the callback pool
     *  below, whose still-pending closures may release pool-allocated
     *  shared blocks (DmaTxns) back into this arena during queue
     *  teardown. */
    PoolArena _arena;

    /**
     * Address-stable storage for every closure the queue holds.
     * Slots live in fixed chunks that never move once allocated, so
     * a closure is built once into its slot, runs there (even while
     * it schedules enough to add a chunk) and is destroyed there; the
     * calendar levels refer to it by index. Freed slots are reused
     * LIFO, keeping the working set to the closures actually alive.
     */
    class CallbackPool
    {
      public:
        /** Construct @p f into a free slot; returns the slot. */
        template <typename F>
        std::uint32_t
        emplace(F &&f)
        {
            std::uint32_t i = take();
            at(i).emplace(std::forward<F>(f));
            return i;
        }

        Callback &
        at(std::uint32_t i)
        {
            return _chunks[i >> kChunkBits][i & (kChunkSlots - 1)];
        }

        /** Free slot @p i, whose closure was consumed. */
        void recycle(std::uint32_t i) { _free.push_back(i); }

        /** Slots handed out so far (the high-water mark). */
        std::uint32_t slots() const { return _used; }

      private:
        /** 64 slots (4.5 KB) per chunk. A chunk's Callbacks are all
         *  constructed when it is added, so small chunks keep the
         *  memory a queue touches close to the most closures it has
         *  held at once. */
        static constexpr std::uint32_t kChunkBits = 6;
        static constexpr std::uint32_t kChunkSlots = 1u << kChunkBits;

        std::uint32_t
        take()
        {
            if (!_free.empty()) {
                std::uint32_t i = _free.back();
                _free.pop_back();
                return i;
            }
            if ((_used & (kChunkSlots - 1)) == 0)
                grow();
            return _used++;
        }

        /** Add a chunk (out of line: the schedule fast path inlines
         *  take()). */
        void grow();

        /** Destroying a chunk destroys every closure still pending
         *  in it. */
        std::vector<std::unique_ptr<Callback[]>> _chunks;
        std::vector<std::uint32_t> _free;
        std::uint32_t _used = 0;
    };

    /**
     * Occupancy bitmap over the ring's slots: a summary word over 16
     * per-slot words, so the next occupied slot at or after a given
     * slot is found with a couple of AND/CTZ operations.
     */
    class Occupancy
    {
      public:
        static constexpr std::uint32_t kNone = ~std::uint32_t(0);

        void
        set(std::uint32_t s)
        {
            _l0[s >> 6] |= 1ULL << (s & 63);
            _l1 |= 1ULL << (s >> 6);
        }

        void
        clear(std::uint32_t s)
        {
            std::uint32_t w = s >> 6;
            if ((_l0[w] &= ~(1ULL << (s & 63))) == 0)
                _l1 &= ~(1ULL << w);
        }

        /** Next occupied slot searching circularly from @p s. */
        std::uint32_t
        findFrom(std::uint32_t s) const
        {
            std::uint32_t r = findAtOrAfter(s);
            if (r != kNone || s == 0)
                return r;
            return findAtOrAfter(0);
        }

      private:
        std::uint32_t
        findAtOrAfter(std::uint32_t s) const
        {
            std::uint32_t w = s >> 6;
            std::uint64_t m = _l0[w] & (~0ULL << (s & 63));
            if (m)
                return (w << 6) + ctz(m);
            std::uint64_t v =
                _l1 & (w >= 63 ? 0 : (~0ULL << (w + 1)));
            if (!v)
                return kNone;
            w = ctz(v);
            return (w << 6) + ctz(_l0[w]);
        }

        static std::uint32_t
        ctz(std::uint64_t v)
        {
            return static_cast<std::uint32_t>(__builtin_ctzll(v));
        }

        std::array<std::uint64_t, kRingSlots / 64> _l0{};
        std::uint64_t _l1 = 0;
    };

    /**
     * One pending event as every level stores it: the (when, seq)
     * ordering pair plus the pool slot of its closure. Slots sort,
     * scatter and heap-sift these 24-byte PODs; the closure stays
     * put.
     */
    struct Key
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t cb;

        bool
        operator<(const Key &o) const
        {
            return when != o.when ? when < o.when : seq < o.seq;
        }
    };

    /** Heap comparator: min on (when, seq). */
    struct Later
    {
        bool
        operator()(const Key &a, const Key &b) const
        {
            return b < a;
        }
    };

    static std::uint32_t
    slotOf(Tick t)
    {
        return static_cast<std::uint32_t>(t >> kSlotSpanBits) &
               (kRingSlots - 1);
    }

    static std::uint32_t
    farSlotOf(Tick t)
    {
        return static_cast<std::uint32_t>(t >> kFarShift) &
               (kFarSlots - 1);
    }

    /** First near-window boundary strictly above @p t. Windows are
     *  kept boundary-aligned so a far slot's span is always either
     *  fully beyond the window or fully scatterable into it. */
    static Tick
    windowBoundaryAbove(Tick t)
    {
        return ((t >> kFarShift) + 1) << kFarShift;
    }

    bool
    ringEmpty() const
    {
        return _size == _farCount + _overflow.size();
    }

    /** Give the closure in pool slot @p cb a seq and place its key at
     *  tick @p when (clamped to now; see scheduleAt). */
    void
    enqueue(Tick when, std::uint32_t cb)
    {
#ifndef NDEBUG
        OPTIMUS_ASSERT(when >= _now,
                       "event scheduled in the past (%llu < %llu)",
                       static_cast<unsigned long long>(when),
                       static_cast<unsigned long long>(_now));
#endif
        if (when < _now)
            when = _now;
        if (when < _nextTick)
            _nextTick = when;
        if (when < _ringLimit) {
            std::uint32_t s = slotOf(when);
            if (s != _activeSlot) {
                pushToSlot(s, Key{when, _nextSeq++, cb});
                ++_size;
                return;
            }
        }
        scheduleSlow(when, cb);
    }

    /** Append a key to (non-active) slot @p s, maintaining occupancy
     *  and the slot's appended-in-order flag. */
    void
    pushToSlot(std::uint32_t s, const Key &k)
    {
        std::vector<Key> &b = _buckets[s];
        if (b.empty()) {
            _slotInOrder[s] = 1;
            _occupied.set(s);
        } else if (k.when < b.back().when) {
            // seq grows monotonically, so an append breaks (when,
            // seq) order only when its tick goes backwards.
            _slotInOrder[s] = 0;
        }
        b.push_back(k);
    }

    /** enqueue() continuation for the uncommon routes: idle window
     *  slide, active-slot ordered insert, far ring, overflow heap. */
    void scheduleSlow(Tick when, std::uint32_t cb);

    /** Append a key to its far-ring bucket. */
    void pushToFar(const Key &k);

    /** Tick of the earliest pending event, found by scanning the
     *  levels (what the _nextTick cache stands for). */
    Tick
    scanNextTick() const
    {
        Tick t = nextRingTick();
        if (t != kTickForever)
            return t;
        if (_farCount != 0)
            return farMinTick();
        return _overflow.empty() ? kTickForever
                                 : _overflow.front().when;
    }

    /** Tick of the earliest ring event; kTickForever if ring empty. */
    Tick nextRingTick() const;

    /** Tick of the earliest far-ring event; requires _farCount > 0. */
    Tick farMinTick() const;

    /** Advance the window past _now: scatter every far slot the new
     *  window covers into the near ring and admit newly covered heap
     *  events into the far ring. */
    void advanceWindow();

    /** Order the slot draining is about to enter and set the cursor. */
    void activateSlot(std::uint32_t s);

    /** Release the active slot without draining it: drop the
     *  dispatched prefix so the bucket is a plain ordered slot again
     *  and clear the cursor. Required whenever control returns to the
     *  caller with _now possibly below the active slot's span — e.g.
     *  a runUntil limit landing before the slot's events — because
     *  every fast path (scheduleAt, nextEventTick, the runUntil drain
     *  loop) treats an active cursor as the queue-wide minimum, which
     *  is only true while _now sits inside the active slot's span. */
    void deactivate();

    /** runUntil() without the final clock advance: drainEvents(),
     *  marked running and counted in runs(). */
    std::uint64_t drain(Tick limit);

    /** drain()'s event loop. */
    std::uint64_t drainEvents(Tick limit);

    /** Advance time to @p t and execute the front event there. */
    void dispatch(Tick t);

    /** dispatch() fast path: execute the active slot's cursor event,
     *  which the caller has established is the queue-wide minimum. */
    void dispatchActive(Tick t);

    CallbackPool _pool;

    Tick _now = 0;
    /** The earliest pending tick (see nextEventTick): exact whenever
     *  no event of this queue is running. */
    Tick _nextTick = kTickForever;
    /** Exclusive end of the near window: ring events all have ticks
     *  in [_now, _ringLimit). Always a whole-window boundary, and
     *  always the first boundary above _now, so _ringLimit - _now
     *  never exceeds kWindowTicks (no slot aliasing). */
    Tick _ringLimit = kWindowTicks;
    /** Exclusive end of the far window: far-ring events have ticks in
     *  [_ringLimit, _farLimit), heap events >= _farLimit. Maintained
     *  as _ringLimit + kFarWindowTicks (no far-slot aliasing). */
    Tick _farLimit = kWindowTicks + kFarWindowTicks;
    /** Slot being drained (kNoSlot if none) and its drain cursor.
     *  While a slot is active its bucket is sorted in (when, seq)
     *  order; _activeHead indexes the next key to dispatch, and the
     *  keys before it belong to events already run. */
    static constexpr std::uint32_t kNoSlot = ~std::uint32_t(0);
    std::uint32_t _activeSlot = kNoSlot;
    std::uint32_t _activeHead = 0;

    std::uint64_t _nextSeq = 0;
    std::uint64_t _executed = 0;
    std::uint64_t _runs = 0;
    std::size_t _size = 0;
    /** Set by requestStop(); cleared when the next run starts. */
    bool _stopRequested = false;
    /** Set while drain() runs events. */
    bool _running = false;
    /** The top-level loop holding the queue (TopLevel), or null. */
    const char *_holder = nullptr;

    std::vector<std::vector<Key>> _buckets;
    /** 1 while a slot's appends have arrived in (when, seq) order —
     *  the common case, since time only moves forward — letting
     *  activation skip the sort entirely. */
    std::vector<std::uint8_t> _slotInOrder;
    Occupancy _occupied;
    /** Far-ring buckets (unsorted; ordering happens on scatter into
     *  the near ring) plus a flat occupancy bitmap and a resident
     *  count. */
    std::vector<std::vector<Key>> _farBuckets;
    std::array<std::uint64_t, kFarSlots / 64> _farOccupied{};
    std::size_t _farCount = 0;
    /** Events beyond even the far window: a binary min-heap on
     *  (when, seq). */
    std::vector<Key> _overflow;
};

/**
 * A recyclable event handle for clocked components: bind a callback
 * once, then (re)arm it as often as needed with zero allocations and
 * without re-creating the closure. This is the kernel half of the
 * idle clock-gating protocol:
 *
 *  - a component with pending work arms its event for the next clock
 *    edge (schedule() keeps the earlier deadline: a later or equal
 *    request while armed is a no-op, an earlier one re-arms sooner);
 *  - a component with nothing to do simply does not re-arm — it goes
 *    clock-gated and burns no events while idle;
 *  - a producer handing it new work wakes it by calling its usual
 *    scheduling entry point, which re-arms the event — even if the
 *    producer's deadline is sooner than an already-armed occurrence.
 *
 * cancel() invalidates any armed occurrence (generation check), so a
 * reset component never observes a stale wakeup.
 *
 * Lifetime: a bound PeriodicEvent must outlive any tick the queue
 * will still execute, or the queue must not be run after the owner
 * is destroyed (true for all platform components, which share their
 * System's lifetime).
 */
class PeriodicEvent
{
  public:
    PeriodicEvent() = default;
    ~PeriodicEvent() { cancel(); }

    PeriodicEvent(const PeriodicEvent &) = delete;
    PeriodicEvent &operator=(const PeriodicEvent &) = delete;

    /** Attach the queue and the (persistent) callback. */
    template <typename F>
    void
    bind(EventQueue &eq, F fn)
    {
        OPTIMUS_ASSERT(!_armed, "rebinding an armed PeriodicEvent");
        _eq = &eq;
        _fn = std::move(fn);
    }

    bool armed() const { return _armed; }

    /** Arm at absolute tick @p when. The earlier arm wins: while
     *  already armed, a later-or-equal @p when is a no-op (clock-edge
     *  re-arms stay idempotent) and an earlier @p when invalidates
     *  the armed occurrence and re-arms at the sooner deadline. */
    void
    schedule(Tick when)
    {
        OPTIMUS_ASSERT(_eq != nullptr && _fn,
                       "scheduling an unbound PeriodicEvent");
        if (_armed) {
            if (when >= _when)
                return;
            ++_gen; // the armed occurrence becomes a dead no-op
        }
        _armed = true;
        _when = when;
        std::uint64_t gen = _gen;
        _eq->scheduleAt(when, [this, gen]() {
            if (gen != _gen || !_armed)
                return;
            _armed = false;
            _fn();
        });
    }

    /** Arm @p delay ticks from now. */
    void
    scheduleIn(Tick delay)
    {
        OPTIMUS_ASSERT(_eq != nullptr,
                       "scheduling an unbound PeriodicEvent");
        schedule(_eq->now() + delay);
    }

    /** Disarm; an in-queue occurrence becomes a dead no-op. */
    void
    cancel()
    {
        if (_armed) {
            ++_gen;
            _armed = false;
        }
    }

  private:
    EventQueue *_eq = nullptr;
    InlineFunction<void(), kCompletionCaptureBytes> _fn;
    std::uint64_t _gen = 0;
    Tick _when = 0;
    bool _armed = false;
};

/**
 * PeriodicEvent specialized for the overwhelmingly common binding —
 * "call this member function on this object" — with the target fixed
 * at compile time. The queued closure then calls the member directly
 * (no second type-erased hop through a stored callable), so a
 * clock-gated component's wakeup costs a single indirect call.
 * Protocol and semantics are identical to PeriodicEvent.
 */
template <typename Owner, void (Owner::*Fn)()>
class MemberEvent
{
  public:
    MemberEvent() = default;
    ~MemberEvent() { cancel(); }

    MemberEvent(const MemberEvent &) = delete;
    MemberEvent &operator=(const MemberEvent &) = delete;

    /** Attach the queue and the owning object. */
    void
    bind(EventQueue &eq, Owner *owner)
    {
        OPTIMUS_ASSERT(!_armed, "rebinding an armed MemberEvent");
        _eq = &eq;
        _owner = owner;
    }

    bool armed() const { return _armed; }

    /** Arm at absolute tick @p when; earlier arm wins (see
     *  PeriodicEvent::schedule). */
    void
    schedule(Tick when)
    {
        OPTIMUS_ASSERT(_eq != nullptr && _owner != nullptr,
                       "scheduling an unbound MemberEvent");
        if (_armed) {
            if (when >= _when)
                return;
            ++_gen; // the armed occurrence becomes a dead no-op
        }
        _armed = true;
        _when = when;
        std::uint64_t gen = _gen;
        _eq->scheduleAt(when, [this, gen]() {
            if (gen != _gen || !_armed)
                return;
            _armed = false;
            (_owner->*Fn)();
        });
    }

    /** Arm @p delay ticks from now. */
    void
    scheduleIn(Tick delay)
    {
        OPTIMUS_ASSERT(_eq != nullptr,
                       "scheduling an unbound MemberEvent");
        schedule(_eq->now() + delay);
    }

    /** Disarm; an in-queue occurrence becomes a dead no-op. */
    void
    cancel()
    {
        if (_armed) {
            ++_gen;
            _armed = false;
        }
    }

  private:
    EventQueue *_eq = nullptr;
    Owner *_owner = nullptr;
    std::uint64_t _gen = 0;
    Tick _when = 0;
    bool _armed = false;
};

} // namespace optimus::sim

#endif // OPTIMUS_SIM_EVENT_QUEUE_HH

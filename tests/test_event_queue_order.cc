/**
 * @file
 * Determinism tests for the calendar event queue.
 *
 * The queue promises execution in exact (tick, schedule-seq) order —
 * identical to a single sorted queue with FIFO tie-break — no matter
 * which internal level (near ring, far ring, overflow heap) an event
 * lands in or how often it migrates between levels as the window
 * advances. These tests pin that contract, including a randomized
 * differential check against a reference heap, so any future change
 * to the wheel geometry or migration logic that perturbs ordering
 * fails loudly here rather than as a silently different simulation.
 * The same differential check pins nextEventTick(), the scan a
 * fleet reads between its windows.
 * They also pin what the callback pool behind the levels guarantees:
 * a closure runs in place even while it grows the pool, every pending
 * closure is released without running by destruction, and steady
 * traffic reuses slots instead of growing. Last, the stop requests
 * and the pump built on them: a run returns right after the event
 * that requests its stop.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <queue>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/inline_function.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

using namespace optimus::sim;

namespace {

// Spans chosen to cross the queue's internal boundaries: slots are
// 2^11 ticks, the near window 2^21, the far window 2^29.
constexpr Tick kSlotSpan = Tick(1) << 11;
constexpr Tick kNearWindow = Tick(1) << 21;
constexpr Tick kFarWindow = Tick(1) << 29;

/** Follow-ups one randomized-differential event schedules: 0-2, or a
 *  300-event burst one time in 256. */
std::uint64_t
followUps(Rng &rng)
{
    std::uint64_t n = rng.next() % 3;
    return rng.next() % 256 == 0 ? n + 300 : n;
}

TEST(EventQueueOrder, SameTickFifoAcrossManyEvents)
{
    EventQueue eq;
    std::vector<int> order;
    // Interleave two ticks; each tick's events must run in the order
    // they were scheduled regardless of interleaving.
    for (int i = 0; i < 64; ++i) {
        eq.scheduleAt(100, [&order, i]() { order.push_back(i); });
        eq.scheduleAt(200, [&order, i]() { order.push_back(100 + i); });
    }
    eq.runAll();
    ASSERT_EQ(order.size(), 128u);
    for (int i = 0; i < 64; ++i) {
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
        EXPECT_EQ(order[static_cast<std::size_t>(64 + i)], 100 + i);
    }
}

TEST(EventQueueOrder, ScheduleDuringExecutionSameTickRunsLast)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(50, [&]() {
        order.push_back(0);
        // Scheduled while tick 50 is draining: runs after every
        // already-queued tick-50 event (seq order), same tick.
        eq.scheduleAt(50, [&]() { order.push_back(3); });
    });
    eq.scheduleAt(50, [&]() { order.push_back(1); });
    eq.scheduleAt(50, [&]() { order.push_back(2); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(eq.now(), 50u);
}

TEST(EventQueueOrder, ScheduleDuringExecutionEarlierInSlotStillSorts)
{
    EventQueue eq;
    std::vector<int> order;
    // Both ticks land in the same slot (span 2048). While tick 10 is
    // executing, schedule tick 20 and then tick 15; they must run as
    // 15 then 20 even though 20 was scheduled first.
    eq.scheduleAt(10, [&]() {
        order.push_back(10);
        eq.scheduleAt(20, [&]() { order.push_back(20); });
        eq.scheduleAt(15, [&]() { order.push_back(15); });
    });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{10, 15, 20}));
}

TEST(EventQueueOrder, RunUntilBoundaryIsInclusive)
{
    EventQueue eq;
    int at_limit = 0, past_limit = 0;
    eq.scheduleAt(1000, [&]() { ++at_limit; });
    eq.scheduleAt(1001, [&]() { ++past_limit; });
    EXPECT_EQ(eq.runUntil(1000), 1u);
    EXPECT_EQ(at_limit, 1);
    EXPECT_EQ(past_limit, 0);
    EXPECT_EQ(eq.now(), 1000u);
    // The past-limit event is still pending and runs on the next call.
    EXPECT_EQ(eq.runUntil(2000), 1u);
    EXPECT_EQ(past_limit, 1);
    EXPECT_EQ(eq.now(), 2000u);
}

TEST(EventQueueOrder, ScheduleEarlierTickAfterRunUntilStopsShort)
{
    // Regression: runUntil used to leave the next slot activated when
    // its events were past the limit; a later scheduleAt into an
    // earlier slot then ran *after* the stale cursor's event and
    // now() regressed.
    EventQueue eq;
    std::vector<Tick> order;
    eq.scheduleAt(5000, [&]() { order.push_back(eq.now()); });
    EXPECT_EQ(eq.runUntil(3000), 0u);
    EXPECT_EQ(eq.now(), 3000u);
    EXPECT_EQ(eq.nextEventTick(), 5000u);
    eq.scheduleAt(3500, [&]() { order.push_back(eq.now()); });
    EXPECT_EQ(eq.nextEventTick(), 3500u);
    eq.runAll();
    EXPECT_EQ(order, (std::vector<Tick>{3500, 5000}));
    EXPECT_EQ(eq.now(), 5000u);
}

TEST(EventQueueOrder, RunUntilMidSlotPartialDrainThenEarlierSchedule)
{
    // Same regression, with the interrupted slot partially drained:
    // 4100 and 5000 share a slot (span 2048); the limit stops the
    // drain between them, then 4300 arrives — earlier than the
    // still-pending 5000 and appended behind it in the re-packed
    // bucket, so activation must re-sort. Order and monotonic time
    // must hold.
    EventQueue eq;
    std::vector<Tick> order;
    auto rec = [&]() { order.push_back(eq.now()); };
    eq.scheduleAt(4100, rec);
    eq.scheduleAt(5000, rec);
    EXPECT_EQ(eq.runUntil(4200), 1u);
    EXPECT_EQ(eq.now(), 4200u);
    EXPECT_EQ(eq.nextEventTick(), 5000u);
    eq.scheduleAt(4300, rec);
    EXPECT_EQ(eq.nextEventTick(), 4300u);
    eq.runAll();
    EXPECT_EQ(order, (std::vector<Tick>{4100, 4300, 5000}));
    EXPECT_EQ(eq.now(), 5000u);
}

TEST(EventQueueOrder, RunUntilUntouchedActivationInLaterSlotReleased)
{
    // The stale activation can also be a slot runUntil activated but
    // never drained (events past the limit, slot span later than
    // now's): a subsequent schedule into an earlier slot must still
    // run first.
    EventQueue eq;
    std::vector<Tick> order;
    auto rec = [&]() { order.push_back(eq.now()); };
    eq.scheduleAt(4100, rec); // slot covering [4096, 6143]
    eq.scheduleAt(7000, rec); // next slot
    EXPECT_EQ(eq.runUntil(4200), 1u);
    eq.scheduleAt(5000, rec); // earlier slot than pending 7000
    eq.runAll();
    EXPECT_EQ(order, (std::vector<Tick>{4100, 5000, 7000}));
    EXPECT_EQ(eq.now(), 7000u);
}

TEST(EventQueueOrder, RunUntilInterleavedWithSchedulingStaysMonotonic)
{
    // Alternate runUntil windows with schedules landing between the
    // limit and the pending far event; now() must never regress.
    EventQueue eq;
    std::vector<Tick> order;
    auto rec = [&]() { order.push_back(eq.now()); };
    eq.scheduleAt(1000, rec);
    eq.scheduleAt(50000, rec);
    EXPECT_EQ(eq.runUntil(2500), 1u);
    eq.scheduleAt(3000, rec);
    EXPECT_EQ(eq.runUntil(10000), 1u);
    eq.scheduleAt(20000, rec);
    eq.runAll();
    EXPECT_EQ(order,
              (std::vector<Tick>{1000, 3000, 20000, 50000}));
    Tick prev = 0;
    for (Tick t : order) {
        EXPECT_LE(prev, t);
        prev = t;
    }
}

TEST(EventQueueOrder, RunUntilAdvancesTimeOnEmptyQueue)
{
    EventQueue eq;
    EXPECT_EQ(eq.runUntil(5000), 0u);
    EXPECT_EQ(eq.now(), 5000u);
}

TEST(EventQueueOrder, FarRingAndHeapEventsComeBackInOrder)
{
    EventQueue eq;
    std::vector<std::uint64_t> order;
    // One event per level: near ring, far ring, overflow heap —
    // scheduled in reverse level order.
    std::vector<Tick> ticks = {
        2 * kFarWindow,           // heap
        kNearWindow + 5,          // far ring
        kSlotSpan + 3,            // near ring
        kFarWindow + kNearWindow, // far ring (outer edge)
        7,                        // near ring, first slot
    };
    for (Tick t : ticks)
        eq.scheduleAt(t, [&order, t]() { order.push_back(t); });
    eq.runAll();
    std::vector<Tick> expect = ticks;
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(order, expect);
    EXPECT_EQ(eq.now(), 2 * kFarWindow);
}

TEST(EventQueueOrder, FarRingScanWrapsAroundTheStartSlotsWord)
{
    // The far-ring minimum scan starts at the slot of the near
    // window's end and walks the occupancy bitmap a 64-bit word at a
    // time. Park that start slot mid-word (slot 70: word 1, bit 6),
    // then occupy the start slot itself, later bits of its word, a
    // later word, word 0 (wrapped), and the start word's bits below
    // the start (wrapped all the way round: the latest far ticks).
    constexpr Tick W = kNearWindow;
    EventQueue eq;
    std::vector<Tick> order;
    auto rec = [&]() { order.push_back(eq.now()); };
    eq.scheduleAt(69 * W + 1, rec);
    EXPECT_EQ(eq.runUntil(69 * W + 1), 1u); // window now ends at 70W
    order.clear();

    // Slots 64 and 69 share the start word but lie below its start
    // bit; slot 200 (word 3) and slot 10 (word 0) come before them.
    std::vector<Tick> ticks = {320 * W + 17, 325 * W + 19, 266 * W + 13,
                               200 * W + 11};
    for (Tick t : ticks)
        eq.scheduleAt(t, rec);
    EXPECT_EQ(eq.nextEventTick(), 200 * W + 11);
    for (Tick t : {100 * W + 7, 70 * W + 5}) {
        eq.scheduleAt(t, rec);
        ticks.push_back(t);
    }
    EXPECT_EQ(eq.nextEventTick(), 70 * W + 5);

    // Each step moves the start slot past the event it ran, so the
    // scan meets every case: the start bit itself, later in the start
    // word, a later word, word 0, and the start word's low bits.
    std::sort(ticks.begin(), ticks.end());
    for (Tick t : ticks) {
        EXPECT_EQ(eq.nextEventTick(), t);
        EXPECT_EQ(eq.runUntil(t), 1u);
    }
    EXPECT_EQ(order, ticks);
    EXPECT_EQ(eq.nextEventTick(), kTickForever);
}

TEST(EventQueueOrder, SameTickFifoSurvivesLevelMigration)
{
    EventQueue eq;
    std::vector<int> order;
    // All at one far-future tick, so every event migrates heap -> far
    // ring -> near ring before executing; seq order must survive.
    const Tick when = 3 * kFarWindow + 12345;
    for (int i = 0; i < 32; ++i)
        eq.scheduleAt(when, [&order, i]() { order.push_back(i); });
    eq.runAll();
    ASSERT_EQ(order.size(), 32u);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueOrder, IdleJumpOverManyWindows)
{
    EventQueue eq;
    // Drain, then schedule far beyond every window from a late now():
    // the idle window slide must not strand or reorder anything.
    std::uint64_t fired = 0;
    eq.scheduleAt(10, [&]() { ++fired; });
    eq.runAll();
    eq.scheduleAt(100 * kFarWindow, [&]() { ++fired; });
    eq.scheduleAt(100 * kFarWindow + 1, [&]() { ++fired; });
    eq.runAll();
    EXPECT_EQ(fired, 3u);
    EXPECT_EQ(eq.now(), 100 * kFarWindow + 1);
}

/**
 * Randomized differential test: replay an identical schedule/execute
 * mix against a reference heap with explicit (tick, seq) keys. Each
 * executing event schedules its follow-ups from inside its callback,
 * at random offsets chosen to exercise every level and every
 * migration path of the calendar; now and then one schedules a burst
 * large enough to add callback-pool chunks while it runs. Every
 * closure carries a heap-backed payload naming its seq (so it moves
 * by its relocate thunk, never by memcpy) and checks it when it runs.
 * Each schedule is drained twice: by runAll(), and through runUntil
 * windows of random length, so partially drained slots are released
 * and re-entered.
 */
TEST(EventQueueOrder, RandomizedDifferentialAgainstReferenceHeap)
{
    // Offsets cross slot, ring, and far-window boundaries.
    const Tick offsets[] = {
        0,          1,           17,          kSlotSpan - 1,
        kSlotSpan,  3 * kSlotSpan, kNearWindow - 1, kNearWindow,
        kNearWindow + kSlotSpan,  kFarWindow - 1, kFarWindow,
        2 * kFarWindow + 99,
    };
    constexpr int kSeeds = 5;
    constexpr std::uint64_t kMaxEvents = 20000;

    for (int seed = 1; seed <= kSeeds; ++seed) {
        // Reference: a plain min-heap on (when, seq).
        using Key = std::pair<Tick, std::uint64_t>;
        std::priority_queue<Key, std::vector<Key>, std::greater<Key>>
            ref;
        std::vector<Key> ref_order;
        {
            Rng rng(static_cast<std::uint64_t>(seed));
            std::uint64_t seq = 0;
            for (int i = 0; i < 40; ++i)
                ref.emplace(rng.next() % 3000, seq++);
            std::uint64_t executed = 0;
            while (!ref.empty() && executed < kMaxEvents) {
                Key k = ref.top();
                ref.pop();
                ref_order.push_back(k);
                ++executed;
                // Deterministic follow-up decisions from the RNG.
                std::uint64_t n = followUps(rng);
                for (std::uint64_t j = 0; j < n; ++j) {
                    Tick off = offsets[rng.next() % std::size(offsets)];
                    ref.emplace(k.first + off, seq++);
                }
            }
        }

        // Subject: the calendar queue making the same decisions,
        // drained once by runAll() and once through runUntil windows
        // of random length, some with nothing due. nextEventTick()
        // must equal the pending reference minimum
        // after every outside schedule and window.
        for (bool windowed : {false, true}) {
            const char *drive = windowed ? "runUntil windows" : "runAll";
            std::vector<Key> got_order;
            std::uint64_t corrupt = 0;
            {
                Rng rng(static_cast<std::uint64_t>(seed));
                EventQueue eq;
                std::uint64_t seq = 0;
                std::uint64_t budget = kMaxEvents;
                // The subject's pending events, as the reference sees
                // them.
                std::multiset<Key> live;
                auto ref_min = [&live]() {
                    return live.empty() ? kTickForever
                                        : live.begin()->first;
                };
                // Self-referential scheduling helper.
                struct Ctx
                {
                    EventQueue &eq;
                    Rng &rng;
                    std::uint64_t &seq;
                    std::uint64_t &budget;
                    std::vector<Key> &order;
                    std::uint64_t &corrupt;
                    std::multiset<Key> &live;
                    const Tick *offsets;
                    std::size_t noffsets;
                } ctx{eq,      rng,  seq,     budget, got_order,
                      corrupt, live, offsets, std::size(offsets)};

                struct Fire
                {
                    Ctx *c;
                    std::uint64_t myseq;
                    std::shared_ptr<const std::uint64_t> payload;
                    void
                    operator()()
                    {
                        if (*payload != myseq)
                            ++c->corrupt;
                        c->live.erase(
                            c->live.find(Key{c->eq.now(), myseq}));
                        if (c->budget == 0)
                            return;
                        --c->budget;
                        c->order.emplace_back(c->eq.now(), myseq);
                        std::uint64_t n = followUps(c->rng);
                        for (std::uint64_t j = 0; j < n; ++j) {
                            Tick off =
                                c->offsets[c->rng.next() % c->noffsets];
                            std::uint64_t s = c->seq++;
                            c->live.emplace(c->eq.now() + off, s);
                            c->eq.scheduleIn(
                                off,
                                Fire{c, s,
                                     std::make_shared<std::uint64_t>(s)});
                        }
                        // Still running in its pool slot after
                        // scheduling the burst: the closure must be
                        // intact.
                        if (*payload != myseq)
                            ++c->corrupt;
                    }
                };
                static_assert(
                    EventQueue::Callback::fitsInline<Fire>() &&
                    !std::is_trivially_copyable_v<Fire>);

                for (int i = 0; i < 40; ++i) {
                    Tick when = rng.next() % 3000;
                    std::uint64_t s = seq++;
                    live.emplace(when, s);
                    eq.scheduleAt(
                        when,
                        Fire{&ctx, s, std::make_shared<std::uint64_t>(s)});
                    ASSERT_EQ(eq.nextEventTick(), ref_min())
                        << "after outside schedule " << i << ", seed "
                        << seed << ", " << drive;
                }
                if (windowed) {
                    // Windows from their own generator, so the
                    // follow-up decisions match the reference's
                    // exactly. A window may end inside a slot, which
                    // releases the partially drained slot and
                    // re-enters it on the next run.
                    Rng windows(static_cast<std::uint64_t>(seed) + 1000);
                    const Tick spans[] = {1, 700, kSlotSpan, kNearWindow,
                                          kFarWindow};
                    std::uint64_t idle = 0;
                    while (!eq.empty()) {
                        const Tick limit =
                            eq.now() +
                            spans[windows.next() % std::size(spans)];
                        idle += eq.nextEventTick() > limit;
                        eq.runUntil(limit);
                        ASSERT_EQ(eq.nextEventTick(), ref_min())
                            << "after the window to " << limit
                            << ", seed " << seed;
                    }
                    EXPECT_GT(idle, 0u);
                } else {
                    eq.runAll();
                    ASSERT_EQ(eq.nextEventTick(), ref_min())
                        << "after runAll, seed " << seed;
                }
                EXPECT_GT(eq.callbackSlots(), 512u)
                    << "a burst should have added a pool chunk";

                // Outside schedules into the drained queue, latest
                // first, then a final drain.
                for (Tick off : {kFarWindow + 7, kNearWindow + 3, Tick(5)}) {
                    eq.scheduleIn(off, []() {});
                    ASSERT_EQ(eq.nextEventTick(), eq.now() + off);
                }
                EXPECT_EQ(eq.runAll(), 3u);
                ASSERT_EQ(eq.nextEventTick(), kTickForever);
            }

            EXPECT_EQ(corrupt, 0u) << "seed " << seed << ", " << drive;
            ASSERT_EQ(got_order.size(), ref_order.size())
                << "seed " << seed << ", " << drive;
            for (std::size_t i = 0; i < ref_order.size(); ++i) {
                ASSERT_EQ(got_order[i].first, ref_order[i].first)
                    << "tick diverged at event " << i << ", seed " << seed
                    << ", " << drive;
                ASSERT_EQ(got_order[i].second, ref_order[i].second)
                    << "seq diverged at event " << i << ", seed " << seed
                    << ", " << drive;
            }
        }
    }
}

/** Tick of event @p i of CallbackGrowingThePoolRunsInPlaceInOrder:
 *  its own tick, later in its slot, or in a later slot. */
Tick
growTick(int i)
{
    if (i % 3 == 0)
        return 100;
    if (i % 3 == 1)
        return 100 + 7 * static_cast<Tick>(i % 5);
    return 100 + kSlotSpan * static_cast<Tick>(i % 4);
}

TEST(EventQueueOrder, CallbackGrowingThePoolRunsInPlaceInOrder)
{
    // One closure, while it runs, schedules 600 more events — enough
    // to add a pool chunk — a third of them into its own active slot
    // at its own tick. Its slot must not be handed out again while it
    // runs (any closure built there would overwrite it from byte 0,
    // where it keeps two marker words), and everything runs in
    // (tick, seq) order.
    constexpr std::uint64_t kMark0 = 0x0123456789abcdefULL;
    constexpr std::uint64_t kMark1 = 0xfedcba9876543210ULL;
    struct Grow
    {
        std::uint64_t mark[2];
        EventQueue *eq;
        std::vector<std::pair<Tick, int>> *order;
        bool *intact;
        void
        operator()() const
        {
            order->emplace_back(eq->now(), -1);
            for (int i = 0; i < 600; ++i)
                eq->scheduleAt(growTick(i), [o = order, q = eq, i]() {
                    o->emplace_back(q->now(), i);
                });
            const volatile std::uint64_t *m = mark;
            *intact = m[0] == kMark0 && m[1] == kMark1;
        }
    };
    EventQueue eq;
    std::vector<std::pair<Tick, int>> order;
    bool intact = false;
    eq.scheduleAt(100, Grow{{kMark0, kMark1}, &eq, &order, &intact});
    eq.scheduleAt(100, [&]() { order.emplace_back(eq.now(), -2); });
    eq.runAll();

    EXPECT_TRUE(intact);
    EXPECT_GT(eq.callbackSlots(), 512u);
    // Tick first, then scheduling order: the first closure, the
    // pre-queued tick-100 event, then the 600 as scheduled.
    std::vector<std::pair<Tick, int>> want = {{100, -1}, {100, -2}};
    std::vector<std::pair<Tick, int>> rest;
    for (int i = 0; i < 600; ++i)
        rest.emplace_back(growTick(i), i);
    std::stable_sort(rest.begin(), rest.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    want.insert(want.end(), rest.begin(), rest.end());
    EXPECT_EQ(order, want);
}

TEST(EventQueueOrder, PendingCapturesReleasedByDestruction)
{
    // One pending closure per level, each holding a reference to the
    // same block. The destructor must run none of them and release
    // every capture.
    auto block = std::make_shared<int>(7);
    int ran = 0;
    auto fill = [&](EventQueue &eq) {
        eq.scheduleAt(eq.now() + kSlotSpan + 3,
                      [block, &ran]() { ++ran; }); // near ring
        eq.scheduleAt(eq.now() + kNearWindow + 5,
                      [block, &ran]() { ++ran; }); // far ring
        eq.scheduleAt(eq.now() + 3 * kFarWindow,
                      [block, &ran]() { ++ran; }); // overflow heap
    };
    {
        EventQueue eq;
        fill(eq);
        EXPECT_EQ(block.use_count(), 4);
        EXPECT_EQ(eq.runAll(), 3u);
        EXPECT_EQ(ran, 3);
        EXPECT_EQ(block.use_count(), 1);

        ran = 0;
        fill(eq); // pending again at every level, at destruction
        EXPECT_EQ(eq.callbackSlots(), 3u); // the freed slots reused
        EXPECT_EQ(block.use_count(), 4);
    }
    EXPECT_EQ(block.use_count(), 1);
    EXPECT_EQ(ran, 0);
}

TEST(EventQueueOrder, SteadyTrafficReusesPoolSlots)
{
    // At most k events pending, scheduled from outside any callback:
    // the pool never grows past k slots, however long it runs.
    constexpr std::uint32_t k = 8;
    EventQueue eq;
    Rng rng(3);
    std::uint64_t ran = 0;
    auto fire = [&ran]() { ++ran; };
    for (std::uint32_t i = 0; i < k; ++i)
        eq.scheduleIn(rng.next() % kNearWindow, fire);
    for (int i = 0; i < 20000; ++i) {
        ASSERT_TRUE(eq.runOne());
        // Offsets reach every level, so slots are reused across
        // near-ring, far-ring and overflow events alike.
        eq.scheduleIn(rng.next() % (3 * kFarWindow), fire);
    }
    EXPECT_EQ(ran, 20000u);
    EXPECT_LE(eq.callbackSlots(), k);

    // A closure holds its slot until it returns, so k chains that
    // each reschedule themselves from inside need one slot more.
    EventQueue chain;
    std::uint64_t hops = 0;
    struct Hop
    {
        EventQueue *eq;
        std::uint64_t *hops;
        void
        operator()() const
        {
            if (++*hops < 20000)
                eq->scheduleIn(1 + *hops % kNearWindow, Hop{eq, hops});
        }
    };
    for (std::uint32_t i = 0; i < k; ++i)
        chain.scheduleIn(i, Hop{&chain, &hops});
    chain.runAll();
    EXPECT_GE(hops, 20000u);
    EXPECT_LE(chain.callbackSlots(), k + 1);
}

#ifdef NDEBUG
TEST(EventQueueOrder, ReleaseBuildClampsPastScheduling)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(100, [&]() {
        order.push_back(0);
        // Scheduling in the past is a model bug; release builds clamp
        // it to now() so long runs survive.
        eq.scheduleAt(40, [&]() { order.push_back(1); });
    });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_EQ(eq.now(), 100u);
}
#endif

TEST(InlineFunctionTest, SmallCapturesStayInline)
{
    struct Small
    {
        void *a;
        std::uint64_t b;
        void operator()() {}
    };
    struct Huge
    {
        unsigned char blob[kEventCaptureBytes + 8];
        void operator()() {}
    };
    struct OverAligned
    {
        alignas(32) double d[2];
        void operator()() {}
    };
    using Fn = InlineFunction<void()>;
    static_assert(Fn::fitsInline<Small>());
    static_assert(!Fn::fitsInline<Huge>());
    static_assert(!Fn::fitsInline<OverAligned>());
    // Oversized captures still work, via the heap fallback.
    int hit = 0;
    struct Big
    {
        unsigned char pad[kEventCaptureBytes];
        int *hit;
        void operator()() { ++*hit; }
    };
    Fn f(Big{{}, &hit});
    f();
    EXPECT_EQ(hit, 1);
}

TEST(InlineFunctionTest, NonTriviallyCopyableCapturesRelocateSafely)
{
    // Captures with interior self-pointers (std::string's SSO buffer)
    // used to be banned by comment only — the memcpy move silently
    // corrupted them. They now relocate through a real move, so an
    // event whose capture crosses every queue level (heap -> far ring
    // -> near ring, plus bucket growth moves) arrives intact.
    EventQueue eq;
    std::vector<std::string> seen;
    const std::string sso = "short";   // fits the SSO buffer
    const std::string big(40, 'x');    // heap-backed string
    for (Tick when :
         {Tick(7), kSlotSpan + 3, kNearWindow + 5, 2 * kFarWindow}) {
        eq.scheduleAt(when, [&seen, s = sso]() { seen.push_back(s); });
        eq.scheduleAt(when, [&seen, s = big]() { seen.push_back(s); });
    }
    eq.runAll();
    ASSERT_EQ(seen.size(), 8u);
    for (std::size_t i = 0; i < seen.size(); i += 2) {
        EXPECT_EQ(seen[i], sso);
        EXPECT_EQ(seen[i + 1], big);
    }
}

TEST(InlineFunctionTest, MoveRelocatesNonTrivialTargets)
{
    using Fn = InlineFunction<void()>;
    std::string out;
    Fn a([&out, s = std::string("relocated")]() { out = s; });
    Fn b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));
    Fn c;
    c = std::move(b);
    c();
    EXPECT_EQ(out, "relocated");
}

TEST(InlineFunctionTest, ConsumeRunsAndEmptiesInOneStep)
{
    int runs = 0;
    InlineFunction<void()> f([&runs]() { ++runs; });
    EXPECT_TRUE(static_cast<bool>(f));
    f.consume();
    EXPECT_EQ(runs, 1);
    EXPECT_FALSE(static_cast<bool>(f));
}

TEST(PeriodicEventTest, ArmIsIdempotentAndCancelKillsOccurrence)
{
    EventQueue eq;
    int fired = 0;
    PeriodicEvent ev;
    ev.bind(eq, [&]() { ++fired; });
    ev.schedule(100);
    ev.schedule(150); // no-op: already armed for the earlier tick 100
    eq.runAll();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 100u);

    ev.schedule(200);
    ev.cancel(); // in-queue occurrence becomes a dead no-op
    eq.runAll();
    EXPECT_EQ(fired, 1);

    // Re-arming after a cancel works.
    ev.schedule(300);
    eq.runAll();
    EXPECT_EQ(fired, 2);
}

TEST(PeriodicEventTest, EarlierArmWinsWhileArmed)
{
    // A producer waking a gated component with a sooner deadline must
    // not be silently delayed to the already-armed (later) tick.
    EventQueue eq;
    std::vector<Tick> fires;
    PeriodicEvent ev;
    ev.bind(eq, [&]() { fires.push_back(eq.now()); });
    ev.schedule(100);
    ev.schedule(40); // earlier: re-arms sooner, kills the 100 arm
    EXPECT_TRUE(ev.armed());
    eq.runAll();
    // Fires exactly once, at the earlier tick; the dead occurrence at
    // 100 drains as a no-op.
    EXPECT_EQ(fires, (std::vector<Tick>{40}));
    EXPECT_FALSE(ev.armed());

    // Re-arming from inside is unaffected: fire at 40 then 60.
    fires.clear();
    PeriodicEvent chain;
    chain.bind(eq, [&]() {
        fires.push_back(eq.now());
        if (fires.size() == 1)
            chain.schedule(eq.now() + 20);
    });
    chain.schedule(eq.now() + 10);
    eq.runAll();
    ASSERT_EQ(fires.size(), 2u);
    EXPECT_EQ(fires[1], fires[0] + 20);
}

struct MemberTarget
{
    int fired = 0;
    void fire() { ++fired; }
};

TEST(MemberEventTest, MatchesPeriodicEventProtocol)
{
    EventQueue eq;
    MemberTarget t;
    MemberEvent<MemberTarget, &MemberTarget::fire> ev;
    ev.bind(eq, &t);
    ev.schedule(100);
    ev.schedule(150); // no-op: armed for the earlier tick 100
    EXPECT_TRUE(ev.armed());
    eq.runAll();
    EXPECT_EQ(t.fired, 1);
    EXPECT_FALSE(ev.armed());

    // Earlier arm wins, as with PeriodicEvent.
    ev.schedule(eq.now() + 100);
    ev.schedule(eq.now() + 10);
    eq.runAll();
    EXPECT_EQ(t.fired, 2);

    ev.schedule(eq.now() + 50);
    ev.cancel();
    eq.runAll();
    EXPECT_EQ(t.fired, 2);

    ev.scheduleIn(10);
    eq.runAll();
    EXPECT_EQ(t.fired, 3);
}

// ---------------------------------------------------------------
// Stop requests: a run, and the pump built on it, returns at the
// event that satisfies its caller.
// ---------------------------------------------------------------

TEST(EventQueueStopTest, RunReturnsRightAfterTheRequestingEvent)
{
    EventQueue q;
    std::vector<Tick> ran;
    for (Tick t : {100, 200, 300}) {
        q.scheduleAt(t, [&q, &ran, t]() {
            ran.push_back(t);
            if (t == 200)
                q.requestStop();
        });
    }
    EXPECT_EQ(q.runUntil(1000), 2u);
    EXPECT_EQ(q.now(), 200u); // the clock stays at the stopping event
    EXPECT_EQ(q.nextEventTick(), 300u);
    // The next run starts without a stop and reaches its limit.
    EXPECT_EQ(q.runUntil(1000), 1u);
    EXPECT_EQ(q.now(), 1000u);
    // A request made outside any run is dropped.
    q.requestStop();
    q.scheduleAt(1100, []() {});
    q.scheduleAt(1200, []() {});
    EXPECT_EQ(q.runAll(), 2u);
    EXPECT_EQ(q.now(), 1200u);
    EXPECT_EQ(ran, (std::vector<Tick>{100, 200, 300}));
}

TEST(EventQueueStopTest, PumpChecksUpFrontAndAtEachStop)
{
    EventQueue q;
    int checks = 0;
    EXPECT_TRUE(q.pumpUntil([&]() {
        ++checks;
        return true;
    }));
    EXPECT_EQ(checks, 1); // up front, with nothing run
    EXPECT_EQ(q.runs(), 0u);

    // A stop that does not satisfy the predicate, then one that does.
    int stops = 0;
    for (Tick t : {100, 200, 300, 400}) {
        q.scheduleAt(t, [&q, &stops, t]() {
            if (t != 300) {
                ++stops;
                q.requestStop();
            }
        });
    }
    checks = 0;
    EXPECT_TRUE(q.pumpUntil([&]() {
        ++checks;
        return stops == 2;
    }));
    EXPECT_EQ(checks, 3);
    EXPECT_EQ(q.now(), 200u);
    EXPECT_EQ(q.runs(), 2u);

    // Nothing satisfies this one: it returns false once the queue
    // drains.
    EXPECT_FALSE(q.pumpUntil([]() { return false; }));
    EXPECT_EQ(q.now(), 400u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.runs(), 3u);
}

TEST(EventQueueStopTest, RunsCountOnlyRunsThatExecute)
{
    EventQueue q;
    EXPECT_EQ(q.runUntil(500), 0u);
    q.scheduleAt(600, []() {});
    EXPECT_EQ(q.runUntil(550), 0u);
    EXPECT_EQ(q.runs(), 0u);
    EXPECT_EQ(q.runUntil(700), 1u);
    EXPECT_EQ(q.runAll(), 0u);
    EXPECT_EQ(q.runs(), 1u);
}

TEST(EventQueueDeathTest, NestedRunsAreFatal)
{
    // Only top-level code advances the queue: a run from inside an
    // event, or a pump from a pump's own predicate, never nests.
    EventQueue q;
    q.scheduleAt(10, [&q]() { q.runUntil(20); });
    EXPECT_DEATH(q.runAll(), "run called from inside an event");
    EventQueue p;
    EXPECT_DEATH(p.pumpUntil([&p]() {
        return p.pumpUntil([]() { return true; });
    }),
                 "EventQueue::pumpUntil holds the queue");
}

} // namespace

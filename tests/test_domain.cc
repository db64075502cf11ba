/**
 * @file
 * Conservative parallel core tests: domain sets, typed cross-domain
 * channels, lookahead derivation, the epoch scheduler's deterministic
 * (tick, domain, seq) delivery order, the domain-armed TraceBus
 * merge, and — the load-bearing property — serial-vs-threaded result
 * equality over two-node fleet::Cluster scenarios (fault campaign,
 * service plane).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "accel/membench_accel.hh"
#include "exp/builders.hh"
#include "exp/runner.hh"
#include "fleet/fleet.hh"
#include "hv/system.hh"
#include "hv/workloads.hh"
#include "sim/domain.hh"
#include "sim/event_queue.hh"
#include "sim/trace_bus.hh"
#include "sim/types.hh"
#include "svc/service_plane.hh"

using namespace optimus;
using namespace optimus::sim;

namespace {

TEST(DomainSetTest, ShardsAreNumberedAndAggregated)
{
    DomainSet set(3);
    EXPECT_EQ(set.size(), 3u);
    for (DomainId d = 0; d < 3; ++d)
        EXPECT_EQ(set.queue(d).domain(), d);

    set.queue(0).scheduleAt(30, []() {});
    set.queue(1).scheduleAt(10, []() {});
    set.queue(2).scheduleAt(20, []() {});
    EXPECT_EQ(set.nextEventTick(), 10u);
    EXPECT_EQ(set.executed(), 0u);

    EpochScheduler sched(set);
    EXPECT_EQ(sched.run(), 3u);
    EXPECT_EQ(set.executed(), 3u);
    EXPECT_EQ(set.nextEventTick(), kTickForever);
}

TEST(DomainSetTest, TeardownReleasesEveryPendingCapture)
{
    // Closures pending at every calendar level of both shards, plus
    // a cross-domain post and a deferred same-domain post still in
    // domain 0's outbox (sent outside any epoch, so no barrier has
    // delivered them): ~DomainSet releases each capture, runs none.
    auto block = std::make_shared<int>(1);
    int ran = 0;
    auto fill = [&](DomainSet &set, Channel<std::shared_ptr<int>> &cross,
                    Channel<std::shared_ptr<int>> &local) {
        for (DomainId d = 0; d < set.size(); ++d) {
            EventQueue &q = set.queue(d);
            for (Tick t : {Tick(3), Tick(1) << 22, Tick(1) << 31})
                q.scheduleAt(t, [block, &ran]() { ++ran; });
        }
        cross.send(block);
        local.send(block);
        EXPECT_EQ(set.queue(0).outbox().size(), 2u);
        EXPECT_EQ(block.use_count(), 9);
    };
    {
        DomainSet set(2);
        Channel<std::shared_ptr<int>> cross(set, 0, 1, 100, "0->1");
        Channel<std::shared_ptr<int>> local(set, 0, 0, 100, "0->0");
        cross.onReceive([&](std::shared_ptr<int>) { ++ran; });
        local.onReceive([&](std::shared_ptr<int>) { ++ran; });
        fill(set, cross, local);
    }
    EXPECT_EQ(block.use_count(), 1);
    EXPECT_EQ(ran, 0);

    // Delivered the same way, every closure runs once and is gone:
    // the cross-domain post's moved into domain 1's pool, the
    // same-domain one ran from the slot it was posted into.
    {
        DomainSet set(2);
        Channel<std::shared_ptr<int>> cross(set, 0, 1, 100, "0->1");
        Channel<std::shared_ptr<int>> local(set, 0, 0, 100, "0->0");
        cross.onReceive([&](std::shared_ptr<int> b) {
            ran += b == block ? 1 : 100;
        });
        local.onReceive([&](std::shared_ptr<int> b) {
            ran += b == block ? 1 : 100;
        });
        fill(set, cross, local);
        EpochScheduler sched(set);
        sched.run();
        EXPECT_EQ(ran, 8);
        EXPECT_EQ(sched.delivered(), 2u);
        EXPECT_EQ(block.use_count(), 1);
        EXPECT_EQ(set.queue(0).callbackSlots(), 5u);
        EXPECT_EQ(set.queue(1).callbackSlots(), 4u);
    }
}

TEST(DomainSetTest, LookaheadIsMinCrossChannelLatency)
{
    DomainSet set(3);
    // No channels: independent domains, infinite lookahead.
    EXPECT_EQ(set.minCrossLatency(), kTickForever);

    Channel<int> slow(set, 0, 1, 900 * kTickNs, "pcie-ish");
    EXPECT_EQ(set.minCrossLatency(), 900 * kTickNs);
    {
        Channel<int> fast(set, 1, 2, 400 * kTickNs, "upi-ish");
        EXPECT_EQ(set.minCrossLatency(), 400 * kTickNs);
        EXPECT_EQ(set.numChannels(), 2u);
    }
    // Destroying a channel releases its constraint.
    EXPECT_EQ(set.minCrossLatency(), 900 * kTickNs);
}

TEST(DomainSetTest, BarrierScheduleBelowCachedTickStartsNextWindow)
{
    // Domain 1 holds one far event and coasts through every window
    // while domain 0 works. At a barrier, an event below domain 1's
    // cached next tick is scheduled into it: the next window must
    // start at that event, not at domain 0's next one or at the
    // stale far event.
    DomainSet set(2);
    Channel<int> link(set, 0, 1, 100, "link"); // lookahead only
    for (Tick t : {0, 1000, 2000, 3000})
        set.queue(0).scheduleAt(t, []() {});
    set.queue(1).scheduleAt(50000, []() {});

    EpochScheduler sched(set);
    std::vector<Tick> barriers;
    Tick ran_at = 0;
    bool inserted = false;
    const bool stopped = sched.pumpUntil(
        []() { return false; },
        [&]() {
            barriers.push_back(set.queue(0).now());
            if (inserted || set.queue(0).now() != 1099)
                return;
            EXPECT_EQ(set.queue(1).nextEventTick(), 50000u);
            set.queue(1).scheduleAt(
                1500, [&]() { ran_at = set.queue(1).now(); });
            EXPECT_EQ(set.queue(1).nextEventTick(), 1500u);
            inserted = true;
        });
    EXPECT_FALSE(stopped); // the set drained
    EXPECT_EQ(ran_at, 1500u);
    // The up-front check, then each window's end: its first event
    // plus the lookahead, minus one.
    const std::vector<Tick> want = {0,    99,   1099, 1599,
                                    2099, 3099, 50099};
    EXPECT_EQ(barriers, want);
}

TEST(ChannelTest, CrossDomainSendArrivesAfterMinLatency)
{
    DomainSet set(2);
    Channel<int> ch(set, 0, 1, 100, "link");
    Tick arrived = 0;
    ch.onReceive([&](int) { arrived = set.queue(1).now(); });

    EpochScheduler sched(set);
    set.queue(0).scheduleAt(5, [&]() { ch.send(1); });
    sched.run();
    EXPECT_EQ(arrived, 105u);
    EXPECT_EQ(sched.delivered(), 1u);
}

/**
 * Drive a 3-domain mesh where several sources deliberately land
 * messages on the SAME destination tick, and record the execution
 * order. The order must be the (tick, source domain, post order)
 * merge — and identical for every pool size.
 */
std::vector<std::tuple<Tick, int, int>>
meshOrder(unsigned threads)
{
    DomainSet set(3);
    // All latencies equal so posts from different sources collide on
    // the same destination tick.
    Channel<std::pair<int, int>> a(set, 1, 0, 100, "1->0");
    Channel<std::pair<int, int>> b(set, 2, 0, 100, "2->0");
    std::vector<std::tuple<Tick, int, int>> order;
    auto rx = [&](std::pair<int, int> m) {
        order.emplace_back(set.queue(0).now(), m.first, m.second);
    };
    a.onReceive(rx);
    b.onReceive(rx);

    // Post in an interleaving that differs from the expected
    // delivery order, from both domains, at two ticks.
    set.queue(2).scheduleAt(10, [&]() {
        b.send({2, 0});
        b.send({2, 1});
    });
    set.queue(1).scheduleAt(10, [&]() {
        a.send({1, 0});
        a.send({1, 1});
    });
    set.queue(1).scheduleAt(20, [&]() { a.send({1, 2}); });
    set.queue(2).scheduleAt(20, [&]() { b.send({2, 2}); });

    EpochScheduler sched(set, threads);
    sched.run();
    return order;
}

TEST(EpochSchedulerTest, SameTickDeliveryOrderIsTickDomainSeq)
{
    auto serial = meshOrder(1);
    ASSERT_EQ(serial.size(), 6u);
    // Tick 110: domain 1's two posts (in post order), then domain
    // 2's; tick 120: likewise.
    std::vector<std::tuple<Tick, int, int>> want = {
        {110, 1, 0}, {110, 1, 1}, {110, 2, 0},
        {110, 2, 1}, {120, 1, 2}, {120, 2, 2},
    };
    EXPECT_EQ(serial, want);
    EXPECT_EQ(meshOrder(2), serial);
    EXPECT_EQ(meshOrder(4), serial);
}

/** Two domains ping-ponging: each leg pays the channel latency, and
 *  the scheduler must cut epochs at the lookahead. */
void
pingPong(unsigned threads)
{
    DomainSet set(2);
    const Tick lat = 50;
    Channel<int> ping(set, 0, 1, lat, "ping");
    Channel<int> pong(set, 1, 0, lat, "pong");
    const int legs = 20;
    int hops = 0;
    Tick lastArrival = 0;
    ping.onReceive([&](int v) {
        ++hops;
        lastArrival = set.queue(1).now();
        if (v < legs)
            pong.send(v + 1);
    });
    pong.onReceive([&](int v) {
        ++hops;
        lastArrival = set.queue(0).now();
        if (v < legs)
            ping.send(v + 1);
    });

    EpochScheduler sched(set, threads);
    EXPECT_EQ(sched.lookahead(), lat);
    set.queue(0).scheduleAt(0, [&]() { ping.send(1); });
    sched.run();

    EXPECT_EQ(hops, legs);
    // Leg i arrives at i * lat (the clocks then coast to the end of
    // the final lookahead window).
    EXPECT_EQ(lastArrival, static_cast<Tick>(legs) * lat);
    EXPECT_GE(std::max(set.queue(0).now(), set.queue(1).now()),
              static_cast<Tick>(legs) * lat);
    EXPECT_EQ(sched.delivered(), static_cast<std::uint64_t>(legs));
    // Conservative windows: the chain cannot collapse into one epoch.
    EXPECT_GE(sched.epochs(), static_cast<std::uint64_t>(legs));
}

TEST(EpochSchedulerTest, PingPongConservativeTiming)
{
    pingPong(1);
    pingPong(2);
    pingPong(4);
}

TEST(EpochSchedulerTest, FiniteRunAdvancesEveryClockToLimit)
{
    DomainSet set(3);
    Channel<int> ch(set, 0, 1, 10, "link");
    ch.onReceive([](int) {});
    set.queue(0).scheduleAt(25, [&]() { ch.send(0); });
    // Domain 2 has no events at all.

    EpochScheduler sched(set);
    sched.run(200);
    for (DomainId d = 0; d < set.size(); ++d)
        EXPECT_EQ(set.queue(d).now(), 200u) << "domain " << d;

    // And a second window continues from there.
    sched.run(300);
    for (DomainId d = 0; d < set.size(); ++d)
        EXPECT_EQ(set.queue(d).now(), 300u) << "domain " << d;
}

/** Sink that fingerprints the exact record stream it sees. */
struct OrderSink : TraceSink
{
    std::vector<std::tuple<Tick, std::uint64_t, std::uint64_t>> seen;
    void
    record(const TraceBus &, const TraceRecord &r) override
    {
        seen.emplace_back(r.at, r.addr, r.arg);
    }
};

/**
 * Emissions from three domains, colliding on ticks, through a
 * domain-armed bus: the sink stream must be the (tick, domain,
 * emission order) merge at every pool size.
 */
std::vector<std::tuple<Tick, std::uint64_t, std::uint64_t>>
tracedMesh(unsigned threads)
{
    DomainSet set(3);
    TraceBus bus(set.queue(0));
    bus.armDomains(set.size());
    OrderSink sink;
    bus.attach(&sink);

    Channel<int> ab(set, 0, 1, 100, "0->1");
    Channel<int> ba(set, 1, 0, 100, "1->0");
    ab.onReceive([&](int v) {
        bus.emit({.addr = 1, .arg = static_cast<std::uint64_t>(v)});
        if (v < 6)
            ba.send(v + 1);
    });
    ba.onReceive([&](int v) {
        bus.emit({.addr = 0, .arg = static_cast<std::uint64_t>(v)});
        if (v < 6)
            ab.send(v + 1);
    });
    // A third domain emitting on the same ticks as the ping-pong.
    std::uint64_t beats = 0;
    std::function<void()> beat = [&]() {
        ++beats;
        bus.emit({.addr = 2, .arg = beats});
        if (beats < 6)
            set.queue(2).scheduleIn(100, beat);
    };
    set.queue(2).scheduleAt(100, beat);

    set.queue(0).scheduleAt(0, [&]() { ab.send(1); });
    EpochScheduler sched(set, threads);
    sched.setBarrierHook([&]() { bus.flushMerged(); });
    sched.run();
    return sink.seen;
}

TEST(TraceBusDomainTest, MergedStreamIsIdenticalAcrossPoolSizes)
{
    auto serial = tracedMesh(1);
    ASSERT_FALSE(serial.empty());
    // Ordered by (tick, domain): at tick 100 domain-1's emission
    // (addr=1) precedes domain-2's beat (addr=2).
    EXPECT_EQ(serial.front(),
              (std::tuple<Tick, std::uint64_t, std::uint64_t>{
                  100, 1, 1}));
    EXPECT_EQ(tracedMesh(2), serial);
    EXPECT_EQ(tracedMesh(4), serial);
}

TEST(TraceBusDomainTest, UnarmedBusDispatchesSynchronously)
{
    EventQueue eq;
    TraceBus bus(eq);
    OrderSink sink;
    bus.attach(&sink);
    EXPECT_FALSE(bus.domainsArmed());
    eq.scheduleAt(7, [&]() { bus.emit({.addr = 9}); });
    eq.runAll();
    ASSERT_EQ(sink.seen.size(), 1u);
    EXPECT_EQ(std::get<0>(sink.seen[0]), 7u);
}

TEST(DefaultSimThreadsTest, ThreadLocalRoundTrip)
{
    EXPECT_EQ(defaultSimThreads(), 1u);
    unsigned prev = setDefaultSimThreads(4);
    EXPECT_EQ(prev, 1u);
    EXPECT_EQ(defaultSimThreads(), 4u);
    setDefaultSimThreads(prev);
    EXPECT_EQ(defaultSimThreads(), 1u);
}

TEST(RunnerCapTest, JobsComposeWithSimThreads)
{
    using exp::Runner;
    // jobs == 1: the request passes through (a 1-CPU host may still
    // genuinely exercise the threaded engine).
    EXPECT_EQ(Runner::effectiveSimThreads(1, 8, 1), 8u);
    EXPECT_EQ(Runner::effectiveSimThreads(1, 4, 64), 4u);
    // jobs > 1: clamp to hw / jobs, never below 1.
    EXPECT_EQ(Runner::effectiveSimThreads(2, 8, 16), 8u);
    EXPECT_EQ(Runner::effectiveSimThreads(4, 8, 16), 4u);
    EXPECT_EQ(Runner::effectiveSimThreads(4, 8, 8), 2u);
    EXPECT_EQ(Runner::effectiveSimThreads(8, 4, 8), 1u);
    EXPECT_EQ(Runner::effectiveSimThreads(16, 8, 4), 1u);
    // sim-threads <= 1 is always serial, and 0s normalize.
    EXPECT_EQ(Runner::effectiveSimThreads(8, 1, 64), 1u);
    EXPECT_EQ(Runner::effectiveSimThreads(0, 0, 64), 1u);
}

/**
 * End-to-end: a faulted two-node cluster must produce identical
 * results at sim-threads 1 and 4. Node 0 runs a hung MemBench tenant
 * under a watchdog next to a SHA job; node 1 runs its own SHA job in
 * the same epochs, so the pooled run executes both domains
 * concurrently. Every observable — job digests, progress counters,
 * recovery actions, event count, final clock — must match
 * bit-for-bit.
 */
struct CampaignResult
{
    std::uint64_t digest = 0;
    std::uint64_t remoteDigest = 0;
    std::uint64_t progressA = 0;
    std::uint64_t wdFires = 0;
    std::uint64_t slotResets = 0;
    std::uint64_t executed = 0;
    Tick end = 0;
    bool operator==(const CampaignResult &) const = default;
};

CampaignResult
faultCampaign(unsigned threads)
{
    fleet::ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.node.mode = hv::FabricMode::kOptimus;
    cfg.node.apps = {"MB", "SHA"};
    fleet::Cluster cl(cfg, threads);
    EXPECT_EQ(cl.node(0).sched.threads(), std::min(threads, 2u));
    hv::System &sys = cl.node(0);
    hv::System &remote = cl.node(1);
    auto inj = exp::installFaults(
        sys, "hang@0:at=50us;watchdog:deadline=200us");

    hv::AccelHandle &a = sys.attach(0, 2ULL << 30);
    hv::AccelHandle &b = sys.attach(1, 2ULL << 30);
    hv::AccelHandle &c = remote.attach(1, 2ULL << 30);
    exp::setupMembench(a, 1ULL << 20, accel::MembenchAccel::kRead, 3,
                       256);
    a.setupStateBuffer();
    auto wl = hv::workload::Workload::create("SHA", b, 1ULL << 20, 5);
    wl->program();
    b.setupStateBuffer();
    auto rwl = hv::workload::Workload::create("SHA", c, 1ULL << 20, 7);
    rwl->program();

    a.start();
    b.start();
    c.start();
    accel::Status bs = b.wait();
    accel::Status cs = c.wait();
    sys.run(sys.now() + 2 * kTickMs);

    CampaignResult out;
    out.digest = bs == accel::Status::kDone ? b.result() : 0;
    out.remoteDigest = cs == accel::Status::kDone ? c.result() : 0;
    out.progressA = sys.hv.peekProgress(a.vaccel());
    out.wdFires = sys.hv.watchdogFires();
    out.slotResets = sys.hv.slotResets();
    out.executed = sys.domains.executed();
    out.end = sys.now();
    return out;
}

TEST(SerialVsThreadedTest, FaultCampaignResultsMatch)
{
    CampaignResult serial = faultCampaign(1);
    EXPECT_GT(serial.digest, 0u);
    EXPECT_GT(serial.remoteDigest, 0u);
    EXPECT_GE(serial.wdFires, 1u);
    EXPECT_EQ(faultCampaign(4), serial);
}

/** And over the fleet's service planes, which dispatch in their
 *  handlers: two closed-loop tenants, one per node. */
std::uint64_t
servicePlaneFingerprint(unsigned threads)
{
    fleet::ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.node = hv::makeOptimusConfig("SHA", 2);
    fleet::Cluster cl(cfg, threads);
    fleet::FleetTenantSpec t0;
    t0.svc.name = "t0";
    t0.svc.app = "SHA";
    t0.svc.bytes = 4096;
    t0.svc.seed = 11;
    t0.svc.slot = 0;
    t0.svc.users = 2;
    fleet::FleetTenantSpec t1 = t0;
    t1.svc.name = "t1";
    t1.svc.seed = 23;
    t1.svc.slot = 1;
    cl.addTenant(t0);
    cl.addTenant(t1);
    EXPECT_NE(cl.tenantNode(0), cl.tenantNode(1));
    cl.run(300 * kTickUs);
    EXPECT_GT(cl.activeBinding(0).completed(), 0u);
    EXPECT_GT(cl.activeBinding(1).completed(), 0u);
    return cl.fingerprint();
}

TEST(SerialVsThreadedTest, ServicePlaneFingerprintsMatch)
{
    EXPECT_EQ(servicePlaneFingerprint(4), servicePlaneFingerprint(1));
}

/** A cluster picks its pool width off the thread-local default —
 *  the runner's --sim-threads plumbing — capped at its node count. */
TEST(SerialVsThreadedTest, DefaultSimThreadsPlumbsThroughCluster)
{
    unsigned prev = setDefaultSimThreads(3);
    fleet::ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.node = hv::makeOptimusConfig("MB", 1);
    fleet::Cluster cl(cfg);
    EXPECT_EQ(cl.node(0).sched.threads(), 2u);
    setDefaultSimThreads(prev);
}

// ---------------------------------------------------------------
// Stop requests: a pump returns at the event that satisfies it.
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

TEST(EpochSchedulerTest, StopEndsOnlyTheStoppingDomainsWindow)
{
    // Domain 0 requests a stop at tick 10, the first event of the
    // window [10, 109]: its window ends there, and domain 1 still
    // finishes the window, at every pool width.
    for (unsigned threads : {1u, 2u}) {
        DomainSet set(2);
        Channel<int> link(set, 0, 1, 100, "link"); // lookahead only
        bool hit = false;
        set.queue(0).scheduleAt(10, [&]() {
            hit = true;
            set.queue(0).requestStop();
        });
        set.queue(0).scheduleAt(20, []() {});
        set.queue(1).scheduleAt(50, []() {});
        set.queue(1).scheduleAt(90, []() {});
        EpochScheduler sched(set, threads);
        EXPECT_TRUE(sched.pumpUntil([&]() { return hit; }));
        EXPECT_EQ(sched.epochs(), 1u) << threads;
        EXPECT_EQ(set.queue(0).now(), 10u) << threads;
        EXPECT_EQ(set.queue(0).nextEventTick(), 20u) << threads;
        EXPECT_EQ(set.queue(1).now(), 109u) << threads;
        EXPECT_EQ(set.queue(1).executed(), 2u) << threads;
    }
}

// ---------------------------------------------------------------
// One queue per node: no channel inside a System.
// ---------------------------------------------------------------

TEST(NodeQueueTest, LoneSystemRunsOneEpochAndDeliversNoPost)
{
    hv::System sys(hv::makeOptimusConfig("MB", 1));
    EXPECT_EQ(sys.domains.numChannels(), 0u);
    EXPECT_EQ(sys.sched.lookahead(), kTickForever);
    hv::AccelHandle &h = sys.attach(0, 2ULL << 30);
    exp::setupMembench(h, 1ULL << 20, accel::MembenchAccel::kRead, 3,
                       256);
    h.start();
    const std::uint64_t epochs = sys.sched.epochs();
    const std::uint64_t events = sys.domains.executed();
    sys.run(sys.now() + 100 * kTickUs);
    EXPECT_EQ(sys.sched.epochs(), epochs + 1);
    EXPECT_GT(sys.domains.executed(), events + 1000);
    EXPECT_EQ(sys.sched.delivered(), 0u);
}

TEST(NodeQueueTest, ClusterLookaheadIsTheRackLink)
{
    fleet::ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.node = hv::makeOptimusConfig("MB", 1);
    fleet::Cluster cl(cfg);
    EXPECT_EQ(cl.node(0).sched.lookahead(), cfg.rackLinkLatency);
}

} // namespace

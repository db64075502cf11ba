/**
 * @file
 * Service-plane tests: arrival determinism (open and closed loop),
 * admission control under queue pressure, batching correctness and
 * its context-switch savings, traffic-generator statistics, and the
 * fault-campaign integration (watchdog quarantine -> error
 * completions -> retry, with co-tenant isolation).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>

#include "exp/builders.hh"
#include "hv/system.hh"
#include "svc/service_plane.hh"
#include "svc/traffic.hh"

using namespace optimus;
using svc::ArrivalKind;
using svc::ArrivalSpec;
using svc::ServicePlane;
using svc::Tenant;
using svc::TenantConfig;

namespace {

TenantConfig
shaTenant(const std::string &name, std::uint32_t slot,
          std::uint64_t seed)
{
    TenantConfig cfg;
    cfg.name = name;
    cfg.app = "SHA";
    cfg.bytes = 512;
    cfg.seed = seed;
    cfg.slot = slot;
    cfg.arrivals.kind = ArrivalKind::kPoisson;
    cfg.arrivals.ratePerSec = 50000.0;
    cfg.sloNs = 200000; // 200us
    return cfg;
}

TEST(TrafficTest, DetLogMatchesLibm)
{
    // detLog only needs to be *deterministic*, but it should also be
    // accurate; compare against libm over the (0, 1] sampler range.
    sim::Rng rng(3);
    for (int i = 0; i < 20000; ++i) {
        double u =
            static_cast<double>((rng.next() >> 11) + 1) * 0x1.0p-53;
        EXPECT_NEAR(svc::detLog(u), std::log(u),
                    1e-12 * (1.0 + std::abs(std::log(u))));
    }
    EXPECT_DOUBLE_EQ(svc::detLog(1.0), 0.0);
}

TEST(TrafficTest, GeneratorsAreDeterministicAndShaped)
{
    for (auto kind : {ArrivalKind::kFixed, ArrivalKind::kPoisson,
                      ArrivalKind::kBursty}) {
        ArrivalSpec spec;
        spec.kind = kind;
        spec.ratePerSec = 100000.0;
        spec.onFraction = 0.25;
        spec.period = sim::kTickMs;
        svc::ArrivalGen a(spec, 42), b(spec, 42), c(spec, 43);
        bool differs = false;
        sim::Tick prev = 0;
        sim::Tick last = 0;
        for (int i = 0; i < 2000; ++i) {
            sim::Tick va = a.nextOffset();
            EXPECT_EQ(va, b.nextOffset()); // same seed: identical
            if (va != c.nextOffset())
                differs = true;
            EXPECT_GE(va, prev); // monotone offsets
            prev = va;
            last = va;
        }
        // Fixed is seed-independent; the random processes are not.
        if (kind != ArrivalKind::kFixed) {
            EXPECT_TRUE(differs);
        }
        // Long-run mean rate within 15% of the request.
        double secs = static_cast<double>(last) /
                      static_cast<double>(sim::kTickSec);
        double rate = 2000.0 / secs;
        EXPECT_NEAR(rate, spec.ratePerSec, spec.ratePerSec * 0.15);
    }
}

TEST(TrafficTest, BurstyRespectsOnOffSchedule)
{
    ArrivalSpec spec;
    spec.kind = ArrivalKind::kBursty;
    spec.ratePerSec = 200000.0;
    spec.onFraction = 0.25;
    spec.period = sim::kTickMs;
    svc::ArrivalGen g(spec, 7);
    sim::Tick on = static_cast<sim::Tick>(
        spec.onFraction * static_cast<double>(spec.period));
    for (int i = 0; i < 2000; ++i) {
        sim::Tick t = g.nextOffset();
        // Arrivals only land in the ON window of each period.
        EXPECT_LT(t % spec.period, on) << "offset " << t;
    }
}

/** Run one single-tenant plane and return its fingerprint. */
std::uint64_t
runOnce(const TenantConfig &cfg, sim::Tick window)
{
    hv::System sys(hv::makeOptimusConfig("SHA", 1));
    ServicePlane plane(sys);
    plane.addTenant(cfg);
    plane.run(window);
    return plane.fingerprint();
}

/** Dispatches of one single-tenant plane, each counted inside the
 *  event that made it possible. */
struct DispatchAudit
{
    std::uint64_t dispatched = 0; ///< every issue samples queue wait
    std::uint64_t onArrival = 0;
    std::uint64_t onCompletion = 0;
    std::uint64_t atHorizon = 0;
    std::uint64_t admitted = 0;
    std::uint64_t completed = 0;
};

/**
 * Serve @p cfg's arrival stream for 1 ms and count the dispatches made
 * inside each kind of event: an arrival, a worker's completion
 * handler (an MMIO doorbell or a ring completion landing) and the
 * horizon. The test injects the arrivals itself, at the ticks the
 * tenant's own generator would draw, so that it can watch each one.
 */
DispatchAudit
auditDispatch(TenantConfig cfg)
{
    hv::System sys(hv::makeOptimusConfig("SHA", 1));
    ServicePlane plane(sys);
    const ArrivalSpec spec = cfg.arrivals;
    cfg.arrivals.kind = ArrivalKind::kFixed;
    cfg.arrivals.ratePerSec = 1.0; // its own first arrival is at 1 s
    Tenant &t = plane.addTenant(cfg);

    DispatchAudit a;
    auto counted = [&t](std::uint64_t &n, const auto &fn) {
        const std::uint64_t before = t.queueHist().count();
        fn();
        n += t.queueHist().count() - before;
    };
    for (std::size_t w = 0; w < t.numWorkers(); ++w) {
        hv::VirtualAccel &v = t.vaccel(w);
        hv::VirtualAccel::CompletionHandler inner = v.completionHandler();
        v.setCompletionHandler([&, inner](accel::Status st) {
            counted(a.onCompletion, [&]() { inner(st); });
        });
    }
    const sim::Tick window = sim::kTickMs;
    const sim::Tick t0 = sys.now();
    const sim::Tick horizon = t0 + window;
    // Bracket the plane's horizon event with two of the test's.
    std::uint64_t before_horizon = 0;
    sys.eq.scheduleAt(horizon, [&]() {
        before_horizon = t.queueHist().count();
    });
    plane.beginWindow(window);
    sys.eq.scheduleAt(horizon, [&]() {
        a.atHorizon = t.queueHist().count() - before_horizon;
    });
    svc::ArrivalGen gen(spec, cfg.seed);
    for (sim::Tick at = t0 + gen.nextOffset(); at < horizon;
         at = t0 + gen.nextOffset()) {
        sys.eq.scheduleAt(at, [&]() {
            counted(a.onArrival, [&]() { plane.injectArrival(t, -1); });
        });
    }
    EXPECT_TRUE(sys.eq.pumpUntil(
        [&]() { return sys.now() >= horizon && plane.idle(); }));
    a.dispatched = t.queueHist().count();
    a.admitted = t.admitted();
    a.completed = t.completed();
    return a;
}

/** The three busy tenants of the dispatch tests: one worker and
 *  arrivals faster than it serves, so requests queue behind it. */
TenantConfig
busyTenant(ring::CmdPath path, unsigned batch)
{
    TenantConfig cfg = shaTenant("t0", 0, 5);
    cfg.arrivals.ratePerSec = 150000.0;
    cfg.cmdPath = path;
    cfg.batchMin = batch;
    cfg.batchMax = batch;
    return cfg;
}

TEST(ServicePlaneTest, EveryDispatchHappensInTheEventThatEnablesIt)
{
    // No dispatch waits for anything but its own cause: an arrival,
    // the completion that frees the worker (an MMIO doorbell, or a
    // ring completion landing), or the horizon for a partial batch.
    for (const TenantConfig &cfg :
         {busyTenant(ring::CmdPath::kMmio, 1),
          busyTenant(ring::CmdPath::kRing, 1),
          busyTenant(ring::CmdPath::kMmio, 4)}) {
        const bool ringed = cfg.cmdPath == ring::CmdPath::kRing;
        SCOPED_TRACE(ringed ? "ring" : cfg.batchMin > 1 ? "batched"
                                                        : "mmio");
        const DispatchAudit a = auditDispatch(cfg);
        EXPECT_GT(a.dispatched, 100u);
        EXPECT_EQ(a.dispatched,
                  a.onArrival + a.onCompletion + a.atHorizon);
        EXPECT_GT(a.onArrival, 0u);
        EXPECT_GT(a.onCompletion, 0u);
        EXPECT_EQ(a.completed, a.admitted); // drained, none lost
        if (cfg.batchMin > 1) {
            EXPECT_GT(a.atHorizon, 0u); // the leftover partial batch
        }
    }
}

TEST(ServicePlaneTest, BusyTenantsServeEveryAdmittedRequest)
{
    // The same three tenants on their own generators. The batched one
    // ends its window with two requests short of a batch: the horizon
    // event serves them, so all 154 admitted requests complete.
    struct Run
    {
        std::uint64_t fingerprint, admitted, completed;
    };
    auto run = [](const TenantConfig &cfg) {
        hv::System sys(hv::makeOptimusConfig("SHA", 1));
        ServicePlane plane(sys);
        Tenant &t = plane.addTenant(cfg);
        plane.run(sim::kTickMs);
        return Run{plane.fingerprint(), t.admitted(), t.completed()};
    };
    const Run m = run(busyTenant(ring::CmdPath::kMmio, 1));
    const Run r = run(busyTenant(ring::CmdPath::kRing, 1));
    const Run b = run(busyTenant(ring::CmdPath::kMmio, 4));
    EXPECT_EQ(m.completed, m.admitted);
    EXPECT_EQ(r.completed, r.admitted);
    EXPECT_EQ(b.admitted, 154u);
    EXPECT_EQ(b.completed, 154u);
    EXPECT_EQ(m.fingerprint, 0xc271b6fad4e50893ULL);
    EXPECT_EQ(r.fingerprint, 0x1dec5f73da0419cdULL);
    EXPECT_EQ(b.fingerprint, 0xdf294357adae4282ULL);
}

TEST(ServicePlaneTest, IdleWorkerDispatchesOnArrival)
{
    // One SHA tenant, 512 B requests every 200 us: the worker is idle
    // at every arrival, so no request waits in the queue at all, on
    // either command path.
    for (ring::CmdPath path : {ring::CmdPath::kMmio, ring::CmdPath::kRing}) {
        hv::System sys(hv::makeOptimusConfig("SHA", 1));
        ServicePlane plane(sys);
        TenantConfig cfg = shaTenant("t0", 0, 5);
        cfg.arrivals.kind = ArrivalKind::kFixed;
        cfg.arrivals.ratePerSec = 5000.0;
        cfg.cmdPath = path;
        Tenant &t = plane.addTenant(cfg);
        plane.run(4 * sim::kTickMs);
        EXPECT_GT(t.completed(), 10u);
        EXPECT_EQ(t.queueHist().count(), t.completed());
        EXPECT_EQ(t.queueHist().max(), 0u);
    }
}

TEST(ServicePlaneTest, OpenLoopDeterminism)
{
    TenantConfig cfg = shaTenant("t0", 0, 5);
    std::uint64_t a = runOnce(cfg, 2 * sim::kTickMs);
    std::uint64_t b = runOnce(cfg, 2 * sim::kTickMs);
    EXPECT_EQ(a, b);
    cfg.seed = 6;
    EXPECT_NE(runOnce(cfg, 2 * sim::kTickMs), a);
}

TEST(ServicePlaneTest, ClosedLoopDeterminism)
{
    TenantConfig cfg = shaTenant("t0", 0, 5);
    cfg.users = 4;
    cfg.think = 20 * sim::kTickUs;
    std::uint64_t a = runOnce(cfg, 2 * sim::kTickMs);
    std::uint64_t b = runOnce(cfg, 2 * sim::kTickMs);
    EXPECT_EQ(a, b);
    cfg.think = 30 * sim::kTickUs;
    EXPECT_NE(runOnce(cfg, 2 * sim::kTickMs), a);
}

TEST(ServicePlaneTest, ServesAndVerifiesRequests)
{
    hv::System sys(hv::makeOptimusConfig("SHA", 1));
    ServicePlane plane(sys);
    Tenant &t = plane.addTenant(shaTenant("t0", 0, 5));
    plane.run(2 * sim::kTickMs);

    EXPECT_GT(t.completed(), 20u);
    EXPECT_EQ(t.verifyFailures(), 0u);
    EXPECT_EQ(t.arrivals(), t.admitted() + t.rejected());
    // Fully drained: every admitted request was accounted.
    EXPECT_EQ(t.queueLength(), 0u);
    EXPECT_EQ(t.admitted(), t.completed() + t.dropped());
    // Latency accounting covered every completion.
    EXPECT_EQ(t.e2eHist().count(), t.completed());
    EXPECT_EQ(t.serviceHist().count(), t.completed());
    EXPECT_GT(t.e2eHist().p50(), 0u);
    // e2e >= service (queue wait is non-negative).
    EXPECT_GE(t.e2eHist().sum(), t.serviceHist().sum());
    // SLO accounting partitions completions.
    EXPECT_EQ(t.goodput() + t.sloViolations(), t.completed());
}

TEST(ServicePlaneTest, QueueFullRejectionsAreCounted)
{
    hv::System sys(hv::makeOptimusConfig("SHA", 1));
    ServicePlane plane(sys);
    TenantConfig cfg = shaTenant("t0", 0, 5);
    cfg.queueDepth = 2;
    cfg.arrivals.ratePerSec = 2e6; // far over capacity
    Tenant &t = plane.addTenant(cfg);
    plane.run(sim::kTickMs);

    EXPECT_GT(t.rejected(), 0u);
    EXPECT_EQ(t.arrivals(), t.admitted() + t.rejected());
    EXPECT_EQ(t.admitted(), t.completed() + t.dropped());
    EXPECT_EQ(t.dropped(), 0u); // no faults: nothing dropped
}

TEST(ServicePlaneTest, BatchingAmortizesContextSwitches)
{
    // Two co-tenants time-share slot 0; batched dispatch must cut
    // context switches while serving the same request stream with
    // per-request verification intact.
    auto runPair = [](unsigned batch, std::uint64_t *switches,
                      std::uint64_t *completed) {
        hv::System sys(hv::makeOptimusConfig("SHA", 1));
        // A service-scale slice: without it the 10ms default means
        // at most one switch inside the whole 2ms window. Must stay
        // above the 38us switch cost or the slot just thrashes.
        sys.hv.setPolicy(0, hv::SchedPolicy::kRoundRobin,
                         100 * sim::kTickUs);
        ServicePlane plane(sys);
        for (int i = 0; i < 2; ++i) {
            TenantConfig cfg = shaTenant(
                "t" + std::to_string(i), 0,
                static_cast<std::uint64_t>(5 + i));
            cfg.arrivals.kind = ArrivalKind::kFixed;
            cfg.arrivals.ratePerSec = 40000.0;
            cfg.batchMin = batch;
            cfg.batchMax = batch;
            plane.addTenant(cfg);
        }
        plane.run(2 * sim::kTickMs);
        *switches = sys.hv.contextSwitches();
        *completed = 0;
        for (std::size_t i = 0; i < plane.numTenants(); ++i) {
            const Tenant &t = plane.tenant(i);
            EXPECT_EQ(t.verifyFailures(), 0u);
            EXPECT_GT(t.batches(), 0u);
            *completed += t.completed();
        }
    };
    std::uint64_t sw1 = 0, done1 = 0, sw8 = 0, done8 = 0;
    runPair(1, &sw1, &done1);
    runPair(8, &sw8, &done8);
    EXPECT_EQ(done1, done8); // same offered load fully served
    EXPECT_LT(sw8, sw1);     // batching amortizes the 38us switch
}

TEST(ServicePlaneTest, FaultCampaignRetriesAndIsolates)
{
    // A hang on slot 0 plus an armed watchdog: tenant a's in-flight
    // request completes as an error (ERR_STATUS path), the plane
    // retries it after the quarantine reset, and co-tenant b on
    // slot 1 keeps its tail latency.
    auto runPair = [](const std::string &faults, std::uint64_t *aErr,
                      std::uint64_t *aViol, std::uint64_t *bP99,
                      std::uint64_t *bDone) {
        hv::System sys(hv::makeOptimusConfig("SHA", 2));
        ServicePlane plane(sys);
        TenantConfig a = shaTenant("a", 0, 5);
        TenantConfig b = shaTenant("b", 1, 6);
        a.arrivals.kind = b.arrivals.kind = ArrivalKind::kFixed;
        a.arrivals.ratePerSec = b.arrivals.ratePerSec = 20000.0;
        // Tight SLO so the ~100us quarantine-and-retry stall (and
        // the backlog behind it) registers as violations.
        a.sloNs = b.sloNs = 50000;
        Tenant &ta = plane.addTenant(a);
        Tenant &tb = plane.addTenant(b);
        auto inj = exp::installFaults(sys, faults);
        plane.run(2 * sim::kTickMs);
        *aErr = ta.errors();
        *aViol = ta.sloViolations();
        *bP99 = tb.e2eHist().p99();
        *bDone = tb.completed();
        EXPECT_EQ(tb.verifyFailures(), 0u);
    };

    std::uint64_t cleanErr = 0, cleanViol = 0, cleanP99 = 0,
                  cleanDone = 0;
    runPair("", &cleanErr, &cleanViol, &cleanP99, &cleanDone);
    EXPECT_EQ(cleanErr, 0u);

    std::uint64_t err = 0, viol = 0, p99 = 0, done = 0;
    runPair("hang@0:at=200us;watchdog:deadline=100us", &err, &viol,
            &p99, &done);
    // The hung tenant observed errors and its SLO violations rose.
    EXPECT_GT(err, 0u);
    EXPECT_GT(viol, cleanViol);
    // The co-tenant kept serving; p99 within 25% of fault-free.
    EXPECT_EQ(done, cleanDone);
    EXPECT_LE(p99, cleanP99 + cleanP99 / 4);
}

} // namespace

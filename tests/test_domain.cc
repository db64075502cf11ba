/**
 * @file
 * One event queue per simulation: a lone System's runs and pumps, a
 * fleet's windows and parcels, counted where perfbench reads them
 * (the sim/domain.hh shims, which go at the next benchmark change),
 * and trace records dispatched inside the emitting event.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "accel/membench_accel.hh"
#include "exp/builders.hh"
#include "fleet/fleet.hh"
#include "hv/system.hh"
#include "sim/domain.hh"
#include "sim/trace_bus.hh"
#include "sim/types.hh"

using namespace optimus;
using namespace optimus::sim;

namespace {

TEST(NodeQueueTest, LoneSystemRunsOneEpochAndDeliversNoPost)
{
    hv::System sys(hv::makeOptimusConfig("MB", 1));
    hv::AccelHandle &h = sys.attach(0, 2ULL << 30);
    exp::setupMembench(h, 1ULL << 20, accel::MembenchAccel::kRead, 3,
                       256);
    const std::uint64_t runs = sys.eq.runs();
    h.start(); // one pump, ended by the trapped write's completion
    EXPECT_EQ(sys.eq.runs(), runs + 1);
    const std::uint64_t events = sys.eq.executed();
    sys.run(sys.now() + 100 * kTickUs);
    EXPECT_EQ(sys.eq.runs(), runs + 2);
    EXPECT_GT(sys.eq.executed(), events + 1000);
    // perfbench's names for the same counts.
    EXPECT_EQ(sys.sched.epochs(), sys.eq.runs());
    EXPECT_EQ(sys.domains.executed(), sys.eq.executed());
    EXPECT_EQ(sys.sched.delivered(), 0u);
}

TEST(NodeQueueTest, ClusterWindowIsTheSmallestLink)
{
    fleet::ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.node = hv::makeOptimusConfig("MB", 1);
    EXPECT_EQ(fleet::Cluster(cfg).window(), cfg.rackLinkLatency);
    // Five nodes in racks of four: rack and inter-rack links both.
    cfg.nodes = 5;
    EXPECT_EQ(fleet::Cluster(cfg).window(), cfg.rackLinkLatency);
    // One node per rack: every link crosses racks.
    cfg.nodes = 2;
    cfg.nodesPerRack = 1;
    EXPECT_EQ(fleet::Cluster(cfg).window(), cfg.interRackLinkLatency);
    // No link at all: one unbounded window.
    cfg.nodes = 1;
    EXPECT_EQ(fleet::Cluster(cfg).window(), kTickForever);
}

TEST(NodeQueueTest, ClusterNodesShareOneQueue)
{
    fleet::ClusterConfig cfg;
    cfg.nodes = 3;
    cfg.node = hv::makeOptimusConfig("MB", 1);
    fleet::Cluster cl(cfg);
    for (unsigned n = 1; n < cl.numNodes(); ++n) {
        EXPECT_EQ(&cl.node(n).eq, &cl.node(0).eq);
        EXPECT_EQ(&cl.node(n).sched, &cl.node(0).sched);
    }
}

TEST(NodeQueueTest, FleetCountsItsWindowsAndParcels)
{
    // A fleet run is one window per barrier after the up-front one,
    // and each forced move delivers one parcel.
    fleet::ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.node = hv::makeOptimusConfig("SHA", 1);
    cfg.rebalanceInterval = 0;
    fleet::Cluster cl(cfg);
    fleet::FleetTenantSpec spec;
    spec.svc.name = "t0";
    spec.svc.app = "SHA";
    spec.svc.bytes = 512;
    spec.svc.seed = 41;
    spec.svc.arrivals.kind = svc::ArrivalKind::kPoisson;
    spec.svc.arrivals.ratePerSec = 20000.0;
    const std::size_t t = cl.addTenant(spec);
    std::uint64_t barriers = 0;
    sim::Tick next = cl.now();
    cl.setBarrierProbe([&]() {
        ++barriers;
        if (cl.now() >= next && cl.now() < cl.horizon() &&
            cl.migrateTenant(t, 1 - cl.tenantNode(t)))
            next += 200 * kTickUs;
    });
    const EpochScheduler &sched = cl.node(1).sched;
    const std::uint64_t epochs = sched.epochs();
    cl.run(kTickMs);
    EXPECT_GE(cl.migrationsCompleted(), 2u);
    EXPECT_EQ(sched.epochs() - epochs, barriers - 1);
    EXPECT_EQ(sched.epochs(), cl.node(0).eq.runs());
    EXPECT_EQ(sched.delivered(), cl.migrationsCompleted());
}

TEST(TraceBusTest, DispatchesInsideTheEmittingEvent)
{
    struct TickSink : TraceSink
    {
        std::vector<Tick> at;
        void
        record(const TraceBus &, const TraceRecord &r) override
        {
            at.push_back(r.at);
        }
    };
    EventQueue eq;
    TraceBus bus(eq);
    TickSink sink;
    bus.attach(&sink);
    eq.scheduleAt(7, [&]() {
        bus.emit({.addr = 9});
        EXPECT_EQ(sink.at.size(), 1u); // already dispatched
    });
    eq.runAll();
    EXPECT_EQ(sink.at, (std::vector<Tick>{7}));
}

TEST(NodeQueueDeathTest, ClusterOfNoNodesFailsCleanly)
{
    fleet::ClusterConfig cfg;
    cfg.nodes = 0;
    cfg.node = hv::makeOptimusConfig("MB", 1);
    EXPECT_DEATH(fleet::Cluster cl(cfg), "needs at least one node");
}

} // namespace

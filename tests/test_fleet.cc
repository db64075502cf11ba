/**
 * @file
 * Fleet plane tests: conservation of work across forced live
 * migrations (nothing lost in flight, blackout measured per move),
 * the parcel's landing and import times,
 * an export whose preempt times out on a wedged source, a rebalancer
 * export that lands while the device is restoring, the guest-visible
 * RESULT/PROGRESS of a finished job after a move, placement policy
 * behavior, and automatic rebalancing of a hot node.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "fleet/fleet.hh"

using namespace optimus;

namespace {

fleet::FleetTenantSpec
shaTenant(const std::string &name, std::uint64_t seed, double rate,
          unsigned home_rack = 0)
{
    fleet::FleetTenantSpec spec;
    spec.svc.name = name;
    spec.svc.app = "SHA";
    spec.svc.bytes = 512;
    spec.svc.seed = seed;
    spec.svc.slot = 0;
    spec.svc.arrivals.kind = svc::ArrivalKind::kPoisson;
    spec.svc.arrivals.ratePerSec = rate;
    spec.svc.sloNs = 300000;
    spec.homeRack = home_rack;
    return spec;
}

/** perfbench's per-tenant seed: splitmix(splitmix(seed) + i) | 1. */
std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t i)
{
    auto splitmix = [](std::uint64_t x) {
        x += 0x9e3779b97f4a7c15ULL;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return x ^ (x >> 31);
    };
    return splitmix(splitmix(seed) + i) | 1;
}

fleet::ClusterConfig
twoNodeConfig(fleet::Policy policy = fleet::Policy::kLeastLoaded)
{
    fleet::ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.policy = policy;
    cfg.node = hv::makeOptimusConfig("SHA", 1);
    return cfg;
}

struct RunStats
{
    std::uint64_t fingerprint;
    std::uint64_t completed;
    std::uint64_t migrations;
    sim::Tick end;
};

RunStats
mixedLoadRun()
{
    fleet::Cluster cl(twoNodeConfig());
    // Count-based placement co-locates t0/t2 on node 0: both heavy,
    // so the rebalancer has real migrations to perform.
    cl.addTenant(shaTenant("t0", 11, 120000.0));
    cl.addTenant(shaTenant("t1", 12, 10000.0));
    cl.addTenant(shaTenant("t2", 13, 120000.0));
    cl.addTenant(shaTenant("t3", 14, 10000.0));
    cl.run(2 * sim::kTickMs);
    return {cl.fingerprint(), cl.fleetCompleted(),
            cl.migrationsCompleted(), cl.now()};
}

TEST(FleetTest, RebalancerMovesLoadOffHotNode)
{
    RunStats st = mixedLoadRun();
    EXPECT_GT(st.completed, 0u);
    EXPECT_GE(st.migrations, 1u);
}

TEST(FleetTest, ParcelLandsAfterLinkAndWireTimeAndImportsAtTheNextBarrier)
{
    // An idle tenant frozen at the up-front barrier exports inline, so
    // its parcel leaves at that barrier's tick. It lands one link
    // latency plus its wire time later, and is imported at the first
    // barrier at or after the landing: the end of the window the
    // landing falls in.
    fleet::ClusterConfig cfg = twoNodeConfig();
    cfg.rebalanceInterval = 0;
    fleet::Cluster cl(cfg);
    const std::size_t t = cl.addTenant(shaTenant("t0", 31, 20000.0));
    ASSERT_EQ(cl.tenantNode(t), 0u);
    std::vector<sim::Tick> barriers;
    sim::Tick imported = 0;
    cl.setBarrierProbe([&]() {
        barriers.push_back(cl.now());
        if (barriers.size() == 1)
            EXPECT_TRUE(cl.migrateTenant(t, 1));
        else if (imported == 0 && cl.tenantNode(t) == 1)
            imported = cl.now();
    });
    cl.run(sim::kTickMs);
    ASSERT_EQ(cl.migrationsCompleted(), 1u);
    const auto wire_ns = static_cast<std::uint64_t>(
        static_cast<double>(cl.migrationBytes()) * 8.0 /
        cfg.migrationGbps);
    const sim::Tick landed =
        barriers[0] + cfg.rackLinkLatency + wire_ns * sim::kTickNs;
    const auto first =
        std::lower_bound(barriers.begin(), barriers.end(), landed);
    ASSERT_NE(first, barriers.end());
    EXPECT_EQ(imported, *first);
    EXPECT_LT(imported, landed + cl.window());
}

TEST(FleetTest, ForcedMigrationConservesWork)
{
    fleet::ClusterConfig cfg = twoNodeConfig();
    cfg.rebalanceInterval = 0; // forced moves only
    fleet::Cluster cl(cfg);
    std::size_t t = cl.addTenant(shaTenant("t0", 21, 20000.0));

    const sim::Tick period = 400 * sim::kTickUs;
    sim::Tick next = cl.now() + period;
    cl.setBarrierProbe([&cl, &next, t, period]() {
        if (cl.now() < next || cl.now() >= cl.horizon())
            return;
        if (cl.migrateTenant(t, 1 - cl.tenantNode(t)))
            next += period;
    });
    cl.run(2 * sim::kTickMs);

    EXPECT_GE(cl.migrationsCompleted(), 2u);
    EXPECT_EQ(cl.migrationsCompleted(), cl.migrationsStarted());
    EXPECT_GT(cl.migrationBytes(), 0u);
    // Every move contributed one blackout sample, and the blackout
    // is physical (preempt drain + wire time can never be zero).
    EXPECT_EQ(cl.blackoutHist().count(), cl.migrationsCompleted());
    EXPECT_GT(cl.blackoutHist().min(), 0u);
    // Nothing was lost in flight: every admitted request either
    // completed (on whichever node ended up serving it) or was
    // rejected at admission; the fleet drained to empty.
    EXPECT_GT(cl.fleetCompleted(), 0u);
    EXPECT_EQ(cl.fleetArrivals(),
              cl.fleetCompleted() + cl.fleetDropped());
}

TEST(FleetTest, ExportTimeoutShipsErroredContextAndRetries)
{
    for (ring::CmdPath path :
         {ring::CmdPath::kMmio, ring::CmdPath::kRing}) {
        SCOPED_TRACE(path == ring::CmdPath::kRing ? "ring" : "mmio");
        fleet::ClusterConfig cfg = twoNodeConfig();
        cfg.rebalanceInterval = 0; // forced moves only
        fleet::Cluster cl(cfg);
        fleet::FleetTenantSpec spec = shaTenant("t0", 12, 20000.0);
        spec.svc.cmdPath = path;
        spec.svc.batchMax = 8; // several ring entries outstanding
        std::size_t t = cl.addTenant(spec);
        const unsigned src = cl.tenantNode(t);
        const unsigned dst = 1 - src;

        // The source device wedges, so the export's preempt times
        // out: the source is force-reset and the errored context
        // ships anyway (a ring tenant's error completions are posted
        // by the import, not at the source).
        const sim::Tick start = cl.now();
        bool wedged = false;
        bool moved = false;
        cl.setBarrierProbe([&]() {
            if (!wedged && cl.now() >= start + 300 * sim::kTickUs) {
                cl.node(src).platform.accel(0).wedge();
                wedged = true;
            }
            if (!moved && cl.now() >= start + 400 * sim::kTickUs)
                moved = cl.migrateTenant(t, dst);
        });
        cl.run(2 * sim::kTickMs);

        EXPECT_EQ(cl.migrationsCompleted(), 1u);
        EXPECT_EQ(cl.node(src).hv.forcedResets(), 1u);
        EXPECT_EQ(cl.fleetArrivals(),
                  cl.fleetCompleted() + cl.fleetDropped());
        // The destination retried what the reset lost, and every
        // output it delivered is correct.
        const svc::Tenant &b = cl.binding(t, dst);
        EXPECT_GT(b.errors(), 0u);
        EXPECT_EQ(b.verifyFailures(), 0u);
    }
}

TEST(FleetTest, RebalancerExportDuringRestoreCedesCleanly)
{
    // Time-shared slots plus the rebalancer: an export can land just
    // after its worker was switched back in, while the device is
    // still restoring. That PREEMPT must still end in SAVED, not in
    // a forced reset after the 5 ms preempt timeout.
    fleet::ClusterConfig cfg = twoNodeConfig();
    cfg.rebalanceInterval = 200 * sim::kTickUs;
    fleet::Cluster cl(cfg);
    for (unsigned n = 0; n < cl.numNodes(); ++n)
        cl.node(n).hv.setPolicy(0, hv::SchedPolicy::kRoundRobin,
                                100 * sim::kTickUs);
    for (unsigned i = 0; i < 4; ++i)
        cl.addTenant(shaTenant("t" + std::to_string(i), subSeed(1, i),
                               i % 2 ? 40000.0 : 20000.0));
    cl.run(3 * sim::kTickMs);

    std::uint64_t resets = 0;
    for (unsigned n = 0; n < cl.numNodes(); ++n)
        resets += cl.node(n).hv.forcedResets();
    EXPECT_GE(cl.migrationsCompleted(), 1u);
    EXPECT_EQ(resets, 0u);
    EXPECT_EQ(cl.fleetArrivals(), 344u);
    EXPECT_EQ(cl.fleetCompleted(), cl.fleetArrivals());
}

TEST(FleetTest, FinishedJobKeepsResultAndProgressAcrossMove)
{
    // A tenant whose last job finished moves between runs. Its
    // destination vaccel holds the slot as an idle placeholder, so
    // that device never ran the job: RESULT and PROGRESS must read
    // what the source device finished with until a new job starts.
    fleet::ClusterConfig cfg = twoNodeConfig();
    cfg.rebalanceInterval = 0;
    fleet::Cluster cl(cfg);
    std::size_t t = cl.addTenant(shaTenant("t0", 61, 20000.0));
    const unsigned src = cl.tenantNode(t);
    const unsigned dst = 1 - src;
    cl.run(200 * sim::kTickUs);
    const hv::VirtualAccel &sv = cl.binding(t, src).vaccel(0);
    ASSERT_EQ(sv.visibleStatus(), accel::Status::kDone);
    const std::uint64_t result = sv.cachedResult();
    const std::uint64_t progress = sv.cachedProgress();
    ASSERT_NE(progress, 0u);

    ASSERT_TRUE(cl.migrateTenant(t, dst));
    cl.run(0); // no arrivals: only the move
    ASSERT_EQ(cl.tenantNode(t), dst);
    hv::VirtualAccel &dv = cl.binding(t, dst).vaccel(0);
    hv::OptimusHv &hv = cl.node(dst).hv;
    EXPECT_TRUE(hv.isScheduled(dv));
    EXPECT_EQ(dv.visibleStatus(), accel::Status::kDone);
    EXPECT_NE(cl.node(dst).platform.accel(0).progress(), progress);

    auto read = [&](std::uint64_t reg) {
        bool done = false;
        std::uint64_t out = 0;
        hv.mmioRead(dv, reg, [&](std::uint64_t v) {
            out = v;
            done = true;
            cl.node(dst).eq.requestStop();
        });
        cl.node(dst).eq.pumpUntil([&]() { return done; });
        return out;
    };
    EXPECT_EQ(read(accel::reg::kResult), result);
    EXPECT_EQ(read(accel::reg::kProgress), progress);
    // The untimed peeks pick their source by the same rule.
    EXPECT_EQ(hv.peekResult(dv), result);
    EXPECT_EQ(hv.peekProgress(dv), progress);
}

TEST(FleetTest, MigrateTenantRejectsBadTargets)
{
    fleet::ClusterConfig cfg = twoNodeConfig();
    cfg.rebalanceInterval = 0;
    fleet::Cluster cl(cfg);
    std::size_t t = cl.addTenant(shaTenant("t0", 31, 1000.0));
    unsigned home = cl.tenantNode(t);
    EXPECT_FALSE(cl.migrateTenant(t, home));  // same node
    EXPECT_FALSE(cl.migrateTenant(t, 99));    // out of range
    EXPECT_TRUE(cl.migrateTenant(t, 1 - home));
    EXPECT_FALSE(cl.migrateTenant(t, home));  // already migrating
    cl.run(200 * sim::kTickUs);
    EXPECT_EQ(cl.tenantNode(t), 1 - home);
    EXPECT_EQ(cl.migrationsCompleted(), 1u);
}

TEST(FleetTest, LocalityPlacementHonorsHomeRack)
{
    fleet::ClusterConfig cfg;
    cfg.nodes = 8;
    cfg.nodesPerRack = 4;
    cfg.policy = fleet::Policy::kLocality;
    cfg.node = hv::makeOptimusConfig("SHA", 1);
    fleet::Cluster cl(cfg);
    for (unsigned i = 0; i < 8; ++i) {
        std::size_t t = cl.addTenant(
            shaTenant("t" + std::to_string(i), 41 + i, 1000.0,
                      i % 2));
        EXPECT_EQ(cl.rackOf(cl.tenantNode(t)), i % 2) << i;
    }
}

TEST(FleetTest, LeastLoadedPlacementSpreadsTenants)
{
    fleet::ClusterConfig cfg = twoNodeConfig();
    cfg.nodes = 4;
    fleet::Cluster cl(cfg);
    for (unsigned i = 0; i < 4; ++i)
        cl.addTenant(
            shaTenant("t" + std::to_string(i), 51 + i, 1000.0));
    // Count-based initial placement: one tenant per node.
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(cl.tenantNode(i), i);
}

} // namespace

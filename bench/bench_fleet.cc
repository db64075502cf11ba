/**
 * @file
 * Fleet evaluation: N-node clusters (fleet::Cluster) under the global
 * scheduler, with live cross-node tenant migration. Four sweeps:
 *
 *  1. Fleet tail latency and goodput for 1..8 nodes x routing policy
 *     (least-loaded, locality, slo-aware). Tenant rates alternate
 *     60k/120k req/s, so the initial count-balanced placement leaves
 *     some nodes overloaded (2 x 120k > one slot's capacity) and the
 *     rebalancer has real work to do.
 *  2. Closed-loop populations up to 10^5 users across a 4-node
 *     fleet: the saturation curve at fleet scale.
 *  3. Migration blackout per application family: a single tenant
 *     force-migrated back and forth between two nodes on a fixed
 *     cadence; per-move freeze-to-reactivation gap and bytes moved.
 *  4. Per-node breakdown of one 4-node least-loaded run, plus the
 *     fleet-merged row (sim::Histogram::merge across bindings).
 *
 * All cells are deterministic: byte-identical across --jobs. Sweep 1's
 * rows are named n<nodes>_<policy>, so `--filter` selects one cluster
 * size (`--filter '^n8_'`) or one policy (`--filter 'slo-aware$'`).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "exp/runner.hh"
#include "fleet/fleet.hh"

using namespace optimus;

namespace {

/** Cluster size of the closed-loop and per-node breakdown sweeps. */
constexpr unsigned kSweepNodes = 4;

/** Baseline fleet tenant: SHA over 512 B per request, 300us SLO. */
fleet::FleetTenantSpec
shaTenant(const std::string &name, std::uint64_t seed, double rate,
          unsigned home_rack)
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

fleet::ClusterConfig
fleetConfig(unsigned nodes, fleet::Policy policy)
{
    fleet::ClusterConfig cfg;
    cfg.nodes = nodes;
    cfg.policy = policy;
    cfg.node = hv::makeOptimusConfig("SHA", 1);
    return cfg;
}

void
sealRow(exp::ResultRow &row, fleet::Cluster &cl)
{
    row.fp.add(cl.fingerprint());
    row.fp.add(cl.now());
    row.sealFingerprint();
}

/** Sweep 1: @p nodes-node fleet, two tenants per node, alternating
 *  60k/120k req/s, under @p policy. */
exp::ResultRow
policyScenario(const std::string &label, unsigned nodes,
               fleet::Policy policy, const exp::RunContext &ctx)
{
    fleet::Cluster cl(fleetConfig(nodes, policy));
    const unsigned racks =
        (nodes + cl.config().nodesPerRack - 1) /
        cl.config().nodesPerRack;
    for (unsigned i = 0; i < 2 * nodes; ++i) {
        double rate = (i % 2) ? 120000.0 : 60000.0;
        cl.addTenant(shaTenant("t" + std::to_string(i), 101 + i,
                               rate, i % racks));
    }
    cl.run(ctx.scaled(4 * sim::kTickMs));

    exp::ResultRow row(label);
    sim::Histogram e2e = cl.fleetE2e();
    row.count("done", cl.fleetCompleted());
    row.count("good", cl.fleetGoodput());
    row.count("rej", cl.fleetDropped());
    row.num("p50_us", "%.1f", static_cast<double>(e2e.p50()) / 1e3);
    row.num("p99_us", "%.1f", static_cast<double>(e2e.p99()) / 1e3);
    row.count("slo_viol", cl.fleetSloViolations());
    row.count("migs", cl.migrationsCompleted());
    const sim::Histogram &bo = cl.blackoutHist();
    row.num("blkout_us", "%.1f",
            bo.count() ? static_cast<double>(bo.sum()) /
                             static_cast<double>(bo.count()) / 1e3
                       : 0.0);
    sealRow(row, cl);
    return row;
}

/** Sweep 2: closed-loop population @p users across a fleet of
 *  kSweepNodes, two tenants per node sharing the population evenly. */
exp::ResultRow
closedScenario(const std::string &label, std::uint64_t users,
               const exp::RunContext &ctx)
{
    fleet::Cluster cl(
        fleetConfig(kSweepNodes, fleet::Policy::kLeastLoaded));
    const unsigned tenants = 2 * kSweepNodes;
    const std::uint64_t per =
        std::max<std::uint64_t>(1, users / tenants);
    for (unsigned i = 0; i < tenants; ++i) {
        fleet::FleetTenantSpec spec =
            shaTenant("t" + std::to_string(i), 201 + i, 0.0, 0);
        spec.svc.users = static_cast<unsigned>(per);
        spec.svc.think = 50 * sim::kTickUs;
        spec.svc.queueDepth = per; // closed loop never overflows
        cl.addTenant(spec);
    }
    cl.run(ctx.scaled(4 * sim::kTickMs));

    exp::ResultRow row(label);
    sim::Histogram e2e = cl.fleetE2e();
    row.count("users", per * tenants);
    row.count("done", cl.fleetCompleted());
    row.num("p50_us", "%.1f", static_cast<double>(e2e.p50()) / 1e3);
    row.num("p99_us", "%.1f", static_cast<double>(e2e.p99()) / 1e3);
    row.count("migs", cl.migrationsCompleted());
    sealRow(row, cl);
    return row;
}

/** Sweep 3: one @p app tenant ping-ponged between two nodes on a
 *  fixed cadence; blackout and bytes per move. */
exp::ResultRow
blackoutScenario(const std::string &app, const exp::RunContext &ctx)
{
    fleet::ClusterConfig cfg =
        fleetConfig(2, fleet::Policy::kLeastLoaded);
    cfg.node = hv::makeOptimusConfig(app, 1);
    cfg.rebalanceInterval = 0; // forced moves only
    fleet::Cluster cl(cfg);

    fleet::FleetTenantSpec spec = shaTenant("t0", 301, 20000.0, 0);
    spec.svc.app = app;
    spec.svc.bytes = 4096;
    std::size_t t = cl.addTenant(spec);

    const sim::Tick period = ctx.scaled(500 * sim::kTickUs);
    sim::Tick next = cl.now() + period;
    cl.setBarrierProbe([&cl, &next, t, period]() {
        // Stop forcing moves once the window closes, or the fleet
        // would ping-pong forever instead of draining.
        if (cl.now() < next || cl.now() >= cl.horizon())
            return;
        if (cl.migrateTenant(t, 1 - cl.tenantNode(t)))
            next += period;
    });
    cl.run(ctx.scaled(3 * sim::kTickMs));

    exp::ResultRow row(app);
    const sim::Histogram &bo = cl.blackoutHist();
    row.count("moves", cl.migrationsCompleted());
    row.num("moved_mb", "%.2f",
            static_cast<double>(cl.migrationBytes()) / 1e6);
    row.num("blkout_mean_us", "%.1f",
            bo.count() ? static_cast<double>(bo.sum()) /
                             static_cast<double>(bo.count()) / 1e3
                       : 0.0);
    row.num("blkout_p99_us", "%.1f",
            static_cast<double>(bo.p99()) / 1e3);
    row.count("done", cl.fleetCompleted());
    row.count("drop", cl.fleetDropped());
    sealRow(row, cl);
    return row;
}

/** Sweep 4: one least-loaded kSweepNodes run, reported per node. */
exp::ResultRow
breakdownScenario(const exp::RunContext &ctx)
{
    fleet::Cluster cl(
        fleetConfig(kSweepNodes, fleet::Policy::kLeastLoaded));
    for (unsigned i = 0; i < 2 * kSweepNodes; ++i) {
        double rate = (i % 2) ? 120000.0 : 60000.0;
        cl.addTenant(
            shaTenant("t" + std::to_string(i), 401 + i, rate, 0));
    }
    cl.run(ctx.scaled(4 * sim::kTickMs));

    exp::ResultRow row("breakdown");
    for (unsigned n = 0; n < kSweepNodes; ++n) {
        sim::Histogram h = cl.nodeE2e(n);
        std::string p = "n" + std::to_string(n) + "_";
        row.count(p + "done", h.count());
        row.num(p + "p99_us", "%.1f",
                static_cast<double>(h.p99()) / 1e3);
    }
    sim::Histogram e2e = cl.fleetE2e();
    row.count("fleet_done", e2e.count());
    row.num("fleet_p99_us", "%.1f",
            static_cast<double>(e2e.p99()) / 1e3);
    row.count("migs", cl.migrationsCompleted());
    sealRow(row, cl);
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    exp::Runner r("fleet");

    r.table("Fleet tail latency and goodput: nodes x policy "
            "(2 tenants/node, SHA 512B, 60k/120k req/s mix)",
            "Section 7 'OPTIMUS in a shared-memory fleet' "
            "(extension of the paper's single-node evaluation)");
    struct Pol
    {
        const char *name;
        fleet::Policy policy;
    };
    const Pol kPolicies[] = {
        {"least-loaded", fleet::Policy::kLeastLoaded},
        {"locality", fleet::Policy::kLocality},
        {"slo-aware", fleet::Policy::kSloAware},
    };
    for (unsigned nodes : {1u, 2u, 4u, 8u}) {
        for (const Pol &p : kPolicies) {
            std::string label = "n" + std::to_string(nodes) + "_" +
                                p.name;
            r.add(label, [nodes, p, label](const exp::RunContext &c) {
                return policyScenario(label, nodes, p.policy, c);
            });
        }
    }
    r.note("2 x 120k req/s co-placed exceeds one slot's ~230k "
           "capacity: rebalancing has real work on every even-size "
           "fleet");

    r.table("Closed-loop population sweep (4-node fleet, 2 "
            "tenants/node, 50us think time)",
            "Section 6 methodology (closed-loop load generation) "
            "at fleet scale");
    for (std::uint64_t pop : {1000ULL, 10000ULL, 100000ULL}) {
        std::string label = "users" + std::to_string(pop);
        r.add(label, [pop, label](const exp::RunContext &c) {
            return closedScenario(
                label, c.scaledCount(pop, 2 * kSweepNodes), c);
        });
    }

    r.table("Migration blackout by application family (2 nodes, "
            "forced move every 500us)",
            "Section 4.4 preemption path, measured end-to-end "
            "across nodes");
    for (const char *app :
         {"AES", "SHA", "GAU", "FIR", "SSSP", "LL", "MB"}) {
        r.add(app, [app](const exp::RunContext &c) {
            return blackoutScenario(app, c);
        });
    }
    r.note("blackout = freeze to reactivation on the destination: "
           "preempt+save drain, window image on the wire, import");

    r.table("Per-node breakdown (least-loaded, 2 tenants/node)",
            "Fleet-wide aggregation via sim::Histogram::merge");
    r.add("breakdown", breakdownScenario);

    return r.main(argc, argv);
}

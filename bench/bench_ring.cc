/**
 * @file
 * Doorbell-free command-path evaluation (DESIGN.md §14): the same
 * request stream served through the trapped-MMIO baseline and through
 * the polled shared-memory ring path, at equal offered load. Three
 * claims, each carried by a column:
 *
 *  - Latency: ring p50 strictly below MMIO p50 at equal load (the
 *    2.2us trap-and-emulate START leaves the per-job critical path;
 *    a ~40ns publish and a clock-gated poller fetch replace it).
 *  - Trap elimination: mmio_traps accumulated over the serving
 *    window, and per completed request — ~1 trap/request on the
 *    baseline, ~0 on the ring path (setup programming amortizes out).
 *  - Simulator cost: events/sec wall cells in the same shape as
 *    bench_sim_kernel (BENCH_sim_kernel.json), so the ring poller's
 *    event overhead is comparable against the kernel baseline.
 *
 * `--cmd-path mmio|ring` restricts the sweep to one path; excluded
 * rows render as "skipped" so tables keep their shape.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "exp/builders.hh"
#include "exp/runner.hh"
#include "ring/ring.hh"
#include "svc/service_plane.hh"
#include "svc/traffic.hh"

using namespace optimus;

namespace {

/** Row label for one (path, per-tenant rate) cell. */
std::string
cellLabel(ring::CmdPath path, double rate)
{
    return std::string(ring::cmdPathName(path)) + "_" +
           std::to_string(static_cast<int>(rate / 1000)) + "k";
}

/** "skipped" placeholder when --cmd-path excludes this row. */
exp::ResultRow
skippedRow(const std::string &label, const std::string &why)
{
    exp::ResultRow row(label);
    row.str("status", "skipped (--cmd-path " + why + ")");
    return row;
}

/**
 * One tenant on slot 0 under @p path at @p rate: SHA over 512 B per
 * request, open-loop Poisson, batchMax pipelining the ring (the MMIO
 * baseline serializes on the completion mailbox regardless, so the
 * batch knob is load-neutral there).
 */
exp::ResultRow
pathScenario(ring::CmdPath path, double rate, unsigned batch,
             const exp::RunContext &ctx)
{
    const std::string label = cellLabel(path, rate);
    if (!ctx.cmdPath.empty() &&
        ctx.cmdPath != ring::cmdPathName(path))
        return skippedRow(label, ctx.cmdPath);

    hv::System sys(hv::makeOptimusConfig("SHA", 1));
    sys.hv.setPolicy(0, hv::SchedPolicy::kRoundRobin,
                     100 * sim::kTickUs); // scheduling knob: unscaled
    svc::ServicePlane plane(sys);
    svc::TenantConfig cfg;
    cfg.name = "t0";
    cfg.app = "SHA";
    cfg.bytes = 512;
    cfg.seed = 17;
    cfg.slot = 0;
    cfg.arrivals.kind = svc::ArrivalKind::kPoisson;
    cfg.arrivals.ratePerSec = rate;
    cfg.sloNs = 300000;
    cfg.batchMax = batch;
    cfg.cmdPath = path;
    plane.addTenant(cfg);
    auto inj = exp::installFaults(sys, ctx.faults);

    // Trap/event deltas start after setup: per-request cost is the
    // claim, not the one-time register programming.
    const std::uint64_t traps0 = sys.hv.traps();
    const std::uint64_t ev0 = sys.eq.executed();
    exp::WallTimer t;
    plane.run(ctx.scaled(8 * sim::kTickMs));
    const double wall_ms = t.ms();
    const std::uint64_t traps = sys.hv.traps() - traps0;
    const std::uint64_t events = sys.eq.executed() - ev0;

    const svc::Tenant &ten = plane.tenant(0);
    exp::ResultRow row(label);
    row.count("done", ten.completed());
    row.num("p50_us", "%.1f",
            static_cast<double>(ten.e2eHist().p50()) / 1e3);
    row.num("p99_us", "%.1f",
            static_cast<double>(ten.e2eHist().p99()) / 1e3);
    row.count("traps", traps);
    row.num("traps_per_req", "%.3f",
            ten.completed() > 0
                ? static_cast<double>(traps) /
                      static_cast<double>(ten.completed())
                : 0.0);
    row.count("ring_submits", sys.hv.ringSubmits());
    row.count("ring_completes", sys.hv.ringCompletes());
    row.count("events", events);
    row.wall("wall_ms", "%.1f", wall_ms);
    row.wall("events_per_sec", "%.0f",
             wall_ms > 0
                 ? static_cast<double>(events) / (wall_ms / 1e3)
                 : 0);
    row.fp.add(plane.fingerprint());
    row.fp.add(traps).add(sys.hv.ringSubmits());
    row.fp.add(sys.hv.ringCompletes()).add(sys.eq.now());
    row.sealFingerprint();
    return row;
}

/** Footer: per rate, ring p50 strictly below MMIO p50, and the ring
 *  rows' per-request trap count ~0 (START/poll traps eliminated). */
std::vector<std::string>
ringClaimsFooter(const std::vector<exp::ResultRow> &rows,
                 const std::vector<double> &rates)
{
    auto cell = [&rows](const std::string &label,
                        const std::string &key) -> const exp::Metric * {
        for (const exp::ResultRow &r : rows) {
            if (r.label != label)
                continue;
            for (const exp::Metric &m : r.metrics)
                if (m.key == key)
                    return &m;
        }
        return nullptr;
    };
    std::vector<std::string> out;
    for (double rate : rates) {
        const std::string mm = cellLabel(ring::CmdPath::kMmio, rate);
        const std::string rg = cellLabel(ring::CmdPath::kRing, rate);
        const exp::Metric *mp = cell(mm, "p50_us");
        const exp::Metric *rp = cell(rg, "p50_us");
        const std::string at =
            std::to_string(static_cast<int>(rate / 1000)) + "k";
        if (!mp || !rp) {
            out.push_back("ring p50 < mmio p50 [" + at +
                          "]: skipped (--cmd-path restricted)");
        } else {
            out.push_back("ring p50 < mmio p50 [" + at + "]: " +
                          (rp->value < mp->value ? "yes" : "NO"));
        }
        const exp::Metric *tr = cell(rg, "traps_per_req");
        if (tr)
            out.push_back("ring traps/req ~ 0 [" + at + "]: " +
                          (tr->value < 0.01 ? "yes" : "NO"));
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    exp::Runner r("ring");

    const std::vector<double> kRates = {40000, 80000, 120000};
    r.table("Ring vs MMIO command path (1 tenant, SHA 512B, "
            "Poisson, slot 0)",
            "DESIGN.md §14 (doorbell-free submission; trap costs "
            "from Section 4.2 of the paper)");
    for (ring::CmdPath p :
         {ring::CmdPath::kMmio, ring::CmdPath::kRing}) {
        for (double rate : kRates) {
            r.add(cellLabel(p, rate),
                  [p, rate](const exp::RunContext &c) {
                      return pathScenario(p, rate, 4, c);
                  });
        }
    }
    r.note("equal offered load per row pair; traps counted over the "
           "serving window only (setup programming excluded); "
           "events_per_sec is comparable to BENCH_sim_kernel.json "
           "wall cells");
    r.footer([kRates](const std::vector<exp::ResultRow> &rows) {
        return ringClaimsFooter(rows, kRates);
    });

    return r.main(argc, argv);
}

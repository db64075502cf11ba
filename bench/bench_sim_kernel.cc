/**
 * @file
 * Simulation-kernel microbenchmark: wall-clock events/sec of the
 * discrete-event kernel itself, measured on (a) a raw event-churn
 * scenario exercising only the queue and (b) the fig6-style
 * multi-tenant MemBench scenarios that dominate the paper-table
 * regeneration time.
 *
 * Each scenario carries a determinism fingerprint (per-tenant
 * progress counts folded with the final simulated time, FNV-1a —
 * the scheme exp::Fingerprint generalizes); kernel optimizations
 * must leave every fingerprint bit-identical to the values recorded
 * in BENCH_sim_kernel.json. Wall-clock columns are volatile cells:
 * rendered, but outside the determinism contract.
 */

#include <memory>
#include <string>
#include <vector>

#include "exp/builders.hh"
#include "exp/runner.hh"
#include "sim/logging.hh"

using namespace optimus;

namespace {

/**
 * Raw kernel churn: many concurrent self-rescheduling event chains
 * with closure captures typical of the platform models (a this
 * pointer, a couple of words, a shared_ptr). No platform components —
 * this isolates schedule/dispatch cost.
 */
exp::ResultRow
rawKernel(std::uint64_t chains, sim::Tick horizon)
{
    sim::EventQueue eq;
    std::uint64_t acc = 0;
    auto payload = std::make_shared<std::uint64_t>(7);

    // Each chain re-arms itself at a chain-specific stride so that
    // buckets stay mixed: some same-tick FIFO traffic, some spread.
    struct Chain
    {
        sim::EventQueue *eq;
        std::uint64_t *acc;
        std::shared_ptr<std::uint64_t> payload;
        sim::Tick stride;
        sim::Tick horizon;
        void
        operator()()
        {
            *acc += *payload + stride;
            if (eq->now() + stride <= horizon)
                eq->scheduleIn(stride, *this);
        }
    };

    for (std::uint64_t c = 0; c < chains; ++c) {
        sim::Tick stride = 2500 + (c % 7) * 1250;
        eq.scheduleAt(c % 5,
                      Chain{&eq, &acc, payload, stride, horizon});
    }

    exp::WallTimer t;
    eq.runUntil(horizon);
    double wall_ms = t.ms();
    std::uint64_t events = eq.executed();

    exp::ResultRow row("raw_chains_" + std::to_string(chains));
    row.num("sim_us", "%.0f",
            static_cast<double>(eq.now()) /
                static_cast<double>(sim::kTickNs) / 1e3);
    row.count("events", events);
    row.wall("wall_ms", "%.1f", wall_ms);
    row.wall("events_per_sec", "%.0f",
             wall_ms > 0
                 ? static_cast<double>(events) / (wall_ms / 1e3)
                 : 0);
    row.fp.add(acc).add(eq.now());
    row.sealFingerprint();
    row.str("fp", sim::strprintf("%016llx",
                                 static_cast<unsigned long long>(
                                     row.fp.value())));
    return row;
}

/**
 * The fig6-style multi-tenant scenario: @p jobs MemBench tenants
 * hammering their own working sets through the full OPTIMUS stack
 * (mux tree, auditors, IOMMU, links, DRAM).
 */
exp::ResultRow
membench(const std::string &name, std::uint32_t jobs,
         std::uint64_t per_wset, std::uint64_t mode,
         std::uint64_t page_bytes, sim::Tick warmup,
         sim::Tick window)
{
    sim::PlatformParams p = sim::PlatformParams::harpDefaults();
    p.pageBytes = page_bytes;
    hv::System sys(hv::makeOptimusConfig("MB", 8, p));
    sys.platform.memory().setScratchWrites(true);

    std::vector<hv::AccelHandle *> handles;
    for (std::uint32_t j = 0; j < jobs; ++j) {
        hv::AccelHandle &h = sys.attach(j, 10ULL << 30);
        exp::setupMembench(h, per_wset, mode, 31 + j);
        handles.push_back(&h);
    }
    for (auto *h : handles)
        h->start();

    sys.run(sys.now() + warmup);
    std::vector<std::uint64_t> before;
    for (auto *h : handles)
        before.push_back(sys.hv.peekProgress(h->vaccel()));

    std::uint64_t ev0 = sys.eq.executed();
    sim::Tick t0 = sys.now();
    exp::WallTimer t;
    sys.run(t0 + window);
    double wall_ms = t.ms();
    std::uint64_t events = sys.eq.executed() - ev0;

    exp::ResultRow row(name);
    row.num("sim_us", "%.0f",
            static_cast<double>(sys.eq.now() - t0) /
                static_cast<double>(sim::kTickNs) / 1e3);
    row.count("events", events);
    row.wall("wall_ms", "%.1f", wall_ms);
    row.wall("events_per_sec", "%.0f",
             wall_ms > 0
                 ? static_cast<double>(events) / (wall_ms / 1e3)
                 : 0);
    for (std::size_t i = 0; i < handles.size(); ++i)
        row.fp.add(sys.hv.peekProgress(handles[i]->vaccel()) -
                   before[i]);
    row.fp.add(sys.eq.now());
    row.sealFingerprint();
    row.str("fp", sim::strprintf("%016llx",
                                 static_cast<unsigned long long>(
                                     row.fp.value())));
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    exp::Runner r("sim_kernel");
    r.table("Simulation-kernel throughput",
            "kernel perf tracking; no paper figure");

    r.add("raw_chains_64", [](const exp::RunContext &ctx) {
        return rawKernel(64, ctx.scaled(2 * sim::kTickMs));
    });
    r.add("membench_8t_2m", [](const exp::RunContext &ctx) {
        return membench("membench_8t_2m", 8,
                        ctx.scaledBytes(32ULL << 20),
                        accel::MembenchAccel::kRead, mem::kPage2M,
                        ctx.scaled(100 * sim::kTickUs),
                        ctx.scaled(400 * sim::kTickUs));
    });
    r.add("membench_8t_4k", [](const exp::RunContext &ctx) {
        return membench("membench_8t_4k", 8,
                        ctx.scaledBytes(4ULL << 20),
                        accel::MembenchAccel::kRead, mem::kPage4K,
                        ctx.scaled(100 * sim::kTickUs),
                        ctx.scaled(400 * sim::kTickUs));
    });
    r.add("membench_8t_mixed", [](const exp::RunContext &ctx) {
        return membench("membench_8t_mixed", 8,
                        ctx.scaledBytes(32ULL << 20),
                        accel::MembenchAccel::kMixed, mem::kPage2M,
                        ctx.scaled(100 * sim::kTickUs),
                        ctx.scaled(400 * sim::kTickUs));
    });

    r.note("(fingerprints must stay bit-identical to "
           "BENCH_sim_kernel.json; wall columns are host-dependent)");
    return r.main(argc, argv);
}

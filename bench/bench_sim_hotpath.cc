/**
 * @file
 * Read/write-isolated microbenchmarks of the simulation kernel's
 * hottest data structures — the DmaTxn pool arena, the three-level
 * calendar rings, the telemetry stat counters and the guest command
 * ring. Where bench_sim_kernel measures the kernel end-to-end (full
 * platform traffic), this bench separates the *production* side of
 * each structure from its *consumption* side, so a regression in one
 * half cannot hide behind an improvement in the other.
 *
 * Every scenario reports deterministic checksums (fingerprinted,
 * identical at any --jobs) alongside volatile wall-clock rate cells
 * excluded from the determinism contract.
 */

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "ccip/packet.hh"
#include "exp/builders.hh"
#include "exp/runner.hh"
#include "guest/process.hh"
#include "guest/vm.hh"
#include "mem/frame_allocator.hh"
#include "mem/host_memory.hh"
#include "ring/ring.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/pool_alloc.hh"
#include "sim/stats.hh"
#include "sim/telemetry.hh"

using namespace optimus;

namespace {

/** Deterministic cells + two isolated wall-rate cells. */
exp::ResultRow
isoRow(const std::string &name, std::uint64_t items,
       std::uint64_t checksum, double write_ms, double read_ms,
       const char *write_col, const char *read_col)
{
    exp::ResultRow row(name);
    row.count("items", items);
    row.str("checksum",
            sim::strprintf("%016llx",
                           static_cast<unsigned long long>(
                               checksum)));
    auto rate = [items](double ms) {
        return items > 0 && ms > 0
                   ? ms * 1e6 / static_cast<double>(items)
                   : 0.0;
    };
    row.wall(write_col, "%.1f", rate(write_ms));
    row.wall(read_col, "%.1f", rate(read_ms));
    return row;
}

// ---------------------------------------------------------------
// Calendar rings: schedule (write half) vs drain (read half).
// ---------------------------------------------------------------

/**
 * @p spread selects which calendar level absorbs the inserts: 0 =
 * all same-tick FIFO (one near-ring bucket), small = near ring,
 * large = far ring / overflow heap.
 */
exp::ResultRow
ringScenario(const std::string &name, std::uint64_t events,
             sim::Tick spread)
{
    sim::EventQueue eq;
    std::uint64_t acc = 0;

    exp::WallTimer tw;
    for (std::uint64_t e = 0; e < events; ++e) {
        sim::Tick when =
            spread == 0 ? 1 : 1 + (e * 2654435761u) % spread;
        eq.scheduleAt(when, [&acc, e]() { acc += e; });
    }
    double write_ms = tw.ms();

    exp::WallTimer tr;
    eq.runAll();
    double read_ms = tr.ms();

    std::uint64_t checksum = acc ^ (eq.now() << 20) ^ eq.executed();
    exp::ResultRow row = isoRow(name, events, checksum, write_ms,
                                read_ms, "sched_ns_per_ev",
                                "drain_ns_per_ev");
    row.fp.add(acc).add(eq.now()).add(eq.executed());
    row.sealFingerprint();
    return row;
}

// ---------------------------------------------------------------
// DmaTxn pool: churn (alloc/free), write-stamp, read-walk.
// ---------------------------------------------------------------

/** Steady-state pool churn: allocate a window, release it, repeat —
 *  after the first window every block comes off the free list. */
exp::ResultRow
dmaPoolChurn(std::uint64_t rounds, std::size_t window)
{
    sim::EventQueue eq; // owns the arena, like a System context
    sim::PoolAlloc<ccip::DmaTxn> alloc(eq.arena());
    std::vector<ccip::DmaTxnPtr> live;
    live.reserve(window);
    std::uint64_t acc = 0;

    exp::WallTimer tw;
    for (std::uint64_t r = 0; r < rounds; ++r) {
        for (std::size_t i = 0; i < window; ++i) {
            auto txn = std::allocate_shared<ccip::DmaTxn>(alloc);
            txn->id = r * window + i;
            live.push_back(std::move(txn));
        }
        acc += live.back()->id;
        live.clear(); // returns the window to the arena free list
    }
    double write_ms = tw.ms();

    // Read half: one resident window, walked repeatedly.
    for (std::size_t i = 0; i < window; ++i) {
        auto txn = std::allocate_shared<ccip::DmaTxn>(alloc);
        txn->id = i;
        txn->bytes = static_cast<std::uint32_t>(64 + (i % 4) * 64);
        live.push_back(std::move(txn));
    }
    exp::WallTimer tr;
    for (std::uint64_t r = 0; r < rounds; ++r)
        for (const auto &txn : live)
            acc += txn->id + txn->bytes + txn->retries;
    double read_ms = tr.ms();
    live.clear();

    std::uint64_t items = rounds * window;
    exp::ResultRow row =
        isoRow("dma_pool_churn_w" + std::to_string(window), items,
               acc, write_ms, read_ms, "alloc_ns_per_txn",
               "walk_ns_per_txn");
    row.fp.add(acc).add(items);
    row.sealFingerprint();
    return row;
}

/** Field-stamp half vs completion-walk half on a resident set —
 *  the auditor/shell write path vs the response read path. */
exp::ResultRow
dmaPoolStampWalk(std::uint64_t rounds, std::size_t resident)
{
    sim::EventQueue eq;
    sim::PoolAlloc<ccip::DmaTxn> alloc(eq.arena());
    std::vector<ccip::DmaTxnPtr> txns;
    txns.reserve(resident);
    for (std::size_t i = 0; i < resident; ++i)
        txns.push_back(std::allocate_shared<ccip::DmaTxn>(alloc));

    // Write half: what the auditor + IOMMU stamp per hop.
    exp::WallTimer tw;
    for (std::uint64_t r = 0; r < rounds; ++r) {
        for (std::size_t i = 0; i < resident; ++i) {
            ccip::DmaTxn &t = *txns[i];
            t.gva = mem::Gva((r << 12) + i * 64);
            t.iova = mem::Iova(t.gva.value() + (1ULL << 30));
            t.tag = static_cast<ccip::AccelTag>(i & 7);
            t.vm = static_cast<std::uint16_t>(i & 3);
            t.proc = 0;
            t.issuedAt = static_cast<sim::Tick>(r);
            t.vc = (i & 1) ? ccip::VChannel::kUpi
                           : ccip::VChannel::kPcie0;
        }
    }
    double write_ms = tw.ms();

    // Read half: what the completion path inspects.
    std::uint64_t acc = 0;
    exp::WallTimer tr;
    for (std::uint64_t r = 0; r < rounds; ++r) {
        for (std::size_t i = 0; i < resident; ++i) {
            const ccip::DmaTxn &t = *txns[i];
            acc += t.iova.value() + t.tag + t.vm +
                   static_cast<std::uint64_t>(t.vc) + t.issuedAt;
        }
    }
    double read_ms = tr.ms();

    std::uint64_t items = rounds * resident;
    exp::ResultRow row =
        isoRow("dma_pool_stamp_r" + std::to_string(resident), items,
               acc, write_ms, read_ms, "stamp_ns_per_txn",
               "read_ns_per_txn");
    row.fp.add(acc).add(items);
    row.sealFingerprint();
    return row;
}

// ---------------------------------------------------------------
// Telemetry stats: increment half vs export/percentile half.
// ---------------------------------------------------------------

exp::ResultRow
statIncrement(std::uint64_t incrs)
{
    sim::Telemetry tel("bench");
    sim::TelemetryNode &n = tel.node("hot");
    sim::Counter a(&n, "a", "hot counter a");
    sim::Counter b(&n, "b", "hot counter b");
    sim::Average avg(&n, "avg", "hot average");

    exp::WallTimer tw;
    for (std::uint64_t i = 0; i < incrs; ++i) {
        ++a;
        b += i & 7;
        avg.sample(static_cast<double>(i & 1023));
    }
    double write_ms = tw.ms();

    std::uint64_t acc = 0;
    exp::WallTimer tr;
    for (std::uint64_t i = 0; i < incrs / 64 + 1; ++i)
        acc += a.value() + b.value();
    double read_ms = tr.ms();

    acc ^= a.value() + b.value();
    exp::ResultRow row = isoRow("stat_incr", incrs, acc, write_ms,
                                read_ms, "incr_ns_per_op",
                                "read_ns_per_op");
    row.fp.add(a.value()).add(b.value());
    row.sealFingerprint();
    return row;
}

exp::ResultRow
histogramRecord(std::uint64_t samples)
{
    sim::Telemetry tel("bench");
    sim::Histogram h(&tel.node("hot"), "lat", "latency histogram");

    exp::WallTimer tw;
    for (std::uint64_t i = 0; i < samples; ++i)
        h.sample(1 + (i * 2654435761u) % 100000);
    double write_ms = tw.ms();

    std::uint64_t acc = 0;
    exp::WallTimer tr;
    for (std::uint64_t i = 0; i < samples / 256 + 1; ++i)
        acc += h.p50() + h.p95() + h.p99();
    double read_ms = tr.ms();

    std::uint64_t checksum =
        h.p50() ^ (h.p95() << 16) ^ (h.p99() << 32) ^ (acc & 1);
    exp::ResultRow row = isoRow("hist_record", samples, checksum,
                                write_ms, read_ms,
                                "sample_ns_per_op",
                                "pctile_ns_per_read");
    row.fp.add(h.p50()).add(h.p95()).add(h.p99());
    row.sealFingerprint();
    return row;
}

// ---------------------------------------------------------------
// Command ring (DESIGN.md §14): producer (push + publish) half vs
// consumer (poll-consume) half of the guest-side queue views.
// ---------------------------------------------------------------

/**
 * The ring path's guest hot loops in isolation, against real guest
 * process memory (GVA -> GPA translation per line touch, exactly
 * what ringSubmit/ringPoll pay). The device between the halves is
 * emulated with raw stores — instant ack of submits, in-place
 * completion posting — so neither half's cell hides the other; the
 * device's *simulated* DMA costs are priced in bench_ring, not here.
 */
exp::ResultRow
cmdRingScenario(const std::string &name, std::uint64_t msgs,
                std::uint32_t entries, std::uint32_t burst)
{
    mem::HostMemory memory(1ULL << 30);
    mem::FrameAllocator frames(mem::Hpa(mem::kPage2M),
                               mem::Hpa(1ULL << 30));
    guest::Vm vm("vm0", memory, frames, 64ULL << 20);
    guest::Process &proc = vm.createProcess("proc");
    const std::uint64_t bytes = ring::ringBytes(entries);
    mem::Gva base = proc.mmapNoReserve(bytes);
    std::vector<std::uint8_t> zero(bytes, 0);
    proc.write(base, zero.data(), bytes);
    ring::SubmitQueue sq(proc, base, entries);
    ring::CompleteQueue cq(proc, base, entries);

    double write_ms = 0, read_ms = 0;
    std::uint64_t acc = 0, produced = 0;
    while (produced < msgs) {
        const std::uint64_t n =
            std::min<std::uint64_t>(burst, msgs - produced);

        // Producer half: n pushes, one publish.
        exp::WallTimer tw;
        for (std::uint64_t i = 0; i < n; ++i)
            sq.push(ring::op::kStart, produced + i,
                    (produced + i) ^ 7);
        sq.publish();
        write_ms += tw.ms();

        // Emulated device: ack every submit, post every completion.
        proc.writeValue<std::uint64_t>(
            base + ring::headerOff(ring::kSubmitConsLine),
            sq.produced());
        for (std::uint64_t i = 0; i < n; ++i) {
            const std::uint64_t seq = produced + i;
            ring::CompleteEntry ce;
            ce.seq = seq;
            ce.status = 5; // accel::Status::kDone
            ce.result = seq * 2654435761u;
            ce.progress = seq;
            ce.tick = seq;
            proc.write(base + ring::completeSlotOff(entries, seq),
                       &ce, sizeof(ce));
        }
        proc.writeValue<std::uint64_t>(
            base + ring::headerOff(ring::kCompleteProdLine),
            produced + n);

        // Consumer half: drain what the device just posted.
        exp::WallTimer tr;
        ring::CompleteEntry e;
        while (cq.poll(e))
            acc += e.seq + e.result;
        read_ms += tr.ms();

        produced += n;
    }

    std::uint64_t checksum = acc ^ sq.produced() ^ (cq.consumed() << 1);
    exp::ResultRow row = isoRow(name, msgs, checksum, write_ms,
                                read_ms, "submit_ns_per_msg",
                                "poll_ns_per_msg");
    row.fp.add(acc).add(sq.produced()).add(cq.consumed());
    row.sealFingerprint();
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    exp::Runner r("sim_hotpath");

    r.table("Calendar rings: schedule vs drain, by level",
            "DESIGN.md §7 (three-level calendar)")
        .add("ring_same_tick_fifo",
             [](const exp::RunContext &ctx) {
                 return ringScenario(
                     "ring_same_tick_fifo",
                     ctx.scaledCount(2'000'000, 1000), 0);
             })
        .add("ring_near",
             [](const exp::RunContext &ctx) {
                 return ringScenario("ring_near",
                                     ctx.scaledCount(2'000'000,
                                                     1000),
                                     1500);
             })
        .add("ring_far_overflow",
             [](const exp::RunContext &ctx) {
                 return ringScenario(
                     "ring_far_overflow",
                     ctx.scaledCount(1'000'000, 1000),
                     40'000'000);
             })
        .note("write half = scheduleAt into the chosen calendar "
              "level; read half = runAll drain. ns/op cells are "
              "wall-clock (volatile).");

    r.table("DmaTxn pool arena: producer vs consumer half",
            "DESIGN.md §8 (PoolArena)")
        .add("dma_pool_churn_w64",
             [](const exp::RunContext &ctx) {
                 return dmaPoolChurn(ctx.scaledCount(40'000, 50),
                                     64);
             })
        .add("dma_pool_churn_w512",
             [](const exp::RunContext &ctx) {
                 return dmaPoolChurn(ctx.scaledCount(5'000, 10),
                                     512);
             })
        .add("dma_pool_stamp_r256",
             [](const exp::RunContext &ctx) {
                 return dmaPoolStampWalk(
                     ctx.scaledCount(10'000, 20), 256);
             });

    r.table("Telemetry stat hot path",
            "DESIGN.md §9 (observability spine)")
        .add("stat_incr",
             [](const exp::RunContext &ctx) {
                 return statIncrement(
                     ctx.scaledCount(4'000'000, 2000));
             })
        .add("hist_record", [](const exp::RunContext &ctx) {
            return histogramRecord(
                ctx.scaledCount(2'000'000, 1000));
        });

    r.table("Command ring: submit-publish vs poll-consume half",
            "DESIGN.md §14 (doorbell-free ring path)")
        .add("cmd_ring_burst8_e64",
             [](const exp::RunContext &ctx) {
                 return cmdRingScenario(
                     "cmd_ring_burst8_e64",
                     ctx.scaledCount(400'000, 1000), 64, 8);
             })
        .add("cmd_ring_burst256_e1024",
             [](const exp::RunContext &ctx) {
                 return cmdRingScenario(
                     "cmd_ring_burst256_e1024",
                     ctx.scaledCount(400'000, 1000), 1024, 256);
             })
        .note("write half = SubmitQueue push + one publish per "
              "burst; read half = CompleteQueue poll-consume; the "
              "device between them is emulated with raw stores "
              "(instant ack), so its simulated DMA cost never "
              "leaks into either cell.");

    return r.main(argc, argv);
}

/**
 * @file
 * Micro-benchmarks for the hot simulation primitives and software
 * kernels: event-queue throughput, IOTLB lookups, GF(256)
 * arithmetic / Reed-Solomon decode, AES, SHA-256, and
 * Smith-Waterman. Useful when optimizing the simulator itself.
 *
 * Each scenario runs a fixed iteration count and reports a
 * deterministic checksum of the computed results (fingerprinted,
 * thread-count independent) alongside volatile wall-clock rate
 * columns.
 */

#include <cstring>
#include <string>
#include <string_view>

#include "accel/algo/aes128.hh"
#include "accel/algo/reed_solomon.hh"
#include "accel/algo/sha.hh"
#include "accel/algo/smith_waterman.hh"
#include "exp/builders.hh"
#include "exp/runner.hh"
#include "iommu/iotlb.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

using namespace optimus;

namespace {

/** Package one kernel's measurement: checksum cell (deterministic)
 *  plus wall-clock rate cells (volatile). */
exp::ResultRow
microRow(const std::string &name, std::uint64_t items,
         std::uint64_t checksum, double wall_ms)
{
    exp::ResultRow row(name);
    row.count("items", items);
    row.str("checksum",
            sim::strprintf("%016llx",
                           static_cast<unsigned long long>(
                               checksum)));
    row.wall("wall_ms", "%.2f", wall_ms);
    row.wall("ns_per_item", "%.1f",
             items > 0 ? wall_ms * 1e6 /
                             static_cast<double>(items)
                       : 0);
    return row;
}

exp::ResultRow
eventQueueScheduleRun(const exp::RunContext &ctx)
{
    const std::uint64_t iters = ctx.scaledCount(500, 2);
    std::uint64_t sink = 0;
    exp::WallTimer t;
    for (std::uint64_t i = 0; i < iters; ++i) {
        sim::EventQueue eq;
        for (int e = 0; e < 1024; ++e)
            eq.scheduleIn(static_cast<sim::Tick>(e),
                          [&]() { ++sink; });
        eq.runAll();
    }
    return microRow("event_queue_schedule_run", iters * 1024, sink,
                    t.ms());
}

exp::ResultRow
iotlbLookupHit(const exp::RunContext &ctx)
{
    iommu::Iotlb tlb(512, mem::kPage2M);
    for (std::uint64_t i = 0; i < 512; ++i)
        tlb.insert(mem::Iova(i << 21), mem::Hpa(i << 21));
    sim::Rng rng(1);
    const std::uint64_t iters = ctx.scaledCount(1000000, 1000);
    std::uint64_t sum = 0;
    exp::WallTimer t;
    for (std::uint64_t i = 0; i < iters; ++i) {
        auto hit = tlb.lookup(
            mem::Iova((rng.below(512) << 21) | 0x40));
        sum += hit ? hit->value() : 0;
    }
    return microRow("iotlb_lookup_hit", iters, sum, t.ms());
}

exp::ResultRow
aes128EncryptBlock(const exp::RunContext &ctx)
{
    algo::Aes128::Key key{};
    algo::Aes128 aes(key);
    std::uint8_t block[16] = {};
    const std::uint64_t iters = ctx.scaledCount(200000, 1000);
    exp::WallTimer t;
    for (std::uint64_t i = 0; i < iters; ++i)
        aes.encryptBlock(block);
    std::uint64_t sum = 0;
    for (std::uint8_t b : block)
        sum = (sum << 8) | b;
    return microRow("aes128_encrypt_block", iters, sum, t.ms());
}

exp::ResultRow
sha256DoubleHash80B(const exp::RunContext &ctx)
{
    std::uint8_t header[80] = {};
    const std::uint64_t iters = ctx.scaledCount(20000, 100);
    std::uint64_t sum = 0;
    exp::WallTimer t;
    for (std::uint64_t i = 0; i < iters; ++i) {
        auto d = algo::doubleSha256(header, sizeof(header));
        sum += d[0];
        ++header[0];
    }
    return microRow("sha256_double_hash_80b", iters, sum, t.ms());
}

exp::ResultRow
reedSolomonDecode(std::size_t nerr, const exp::RunContext &ctx)
{
    algo::ReedSolomon rs;
    sim::Rng rng(2);
    std::uint8_t msg[algo::ReedSolomon::kK];
    for (auto &b : msg)
        b = static_cast<std::uint8_t>(rng.next());
    std::uint8_t clean[algo::ReedSolomon::kN];
    rs.encode(msg, clean);

    const std::uint64_t iters = ctx.scaledCount(2000, 10);
    std::uint64_t sum = 0;
    exp::WallTimer t;
    for (std::uint64_t i = 0; i < iters; ++i) {
        std::uint8_t cw[algo::ReedSolomon::kN];
        std::memcpy(cw, clean, sizeof(cw));
        for (std::size_t e = 0; e < nerr; ++e)
            cw[(e * 17) % algo::ReedSolomon::kN] ^= 0x5a;
        sum += static_cast<std::uint64_t>(rs.decode(cw)) + 1;
    }
    return microRow(
        sim::strprintf("reed_solomon_decode_%zuerr", nerr), iters,
        sum, t.ms());
}

exp::ResultRow
smithWaterman(std::size_t n, const exp::RunContext &ctx)
{
    sim::Rng rng(3);
    std::string a(n, 'A');
    std::string b(n, 'A');
    static const char alpha[] = "ACGT";
    for (auto &c : a)
        c = alpha[rng.below(4)];
    for (auto &c : b)
        c = alpha[rng.below(4)];
    const std::uint64_t iters =
        ctx.scaledCount(n >= 1024 ? 10 : 100, 1);
    std::uint64_t sum = 0;
    exp::WallTimer t;
    for (std::uint64_t i = 0; i < iters; ++i)
        sum += static_cast<std::uint64_t>(
            algo::smithWatermanScore(a, b));
    return microRow(sim::strprintf("smith_waterman_%zu", n),
                    iters * n * n, sum, t.ms());
}

} // namespace

int
main(int argc, char **argv)
{
    exp::Runner r("micro");
    r.table("Micro-benchmarks: simulation primitives and software "
            "kernels",
            "simulator internals; no paper figure");

    r.add("event_queue_schedule_run", eventQueueScheduleRun);
    r.add("iotlb_lookup_hit", iotlbLookupHit);
    r.add("aes128_encrypt_block", aes128EncryptBlock);
    r.add("sha256_double_hash_80b", sha256DoubleHash80B);
    for (std::size_t nerr : {std::size_t{0}, std::size_t{4},
                             std::size_t{16}}) {
        r.add(sim::strprintf("reed_solomon_decode_%zuerr", nerr),
              [nerr](const exp::RunContext &ctx) {
                  return reedSolomonDecode(nerr, ctx);
              });
    }
    for (std::size_t n : {std::size_t{256}, std::size_t{1024}}) {
        r.add(sim::strprintf("smith_waterman_%zu", n),
              [n](const exp::RunContext &ctx) {
                  return smithWaterman(n, ctx);
              });
    }

    r.note("(checksum columns are deterministic; wall columns are "
           "host-dependent)");
    return r.main(argc, argv);
}

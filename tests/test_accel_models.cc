/**
 * @file
 * Behavioural tests of individual accelerator models beyond the
 * uniform end-to-end sweep: count-limited linked-list walks, MemBench
 * target/mixed modes, Reed-Solomon failure accounting, Bitcoin
 * difficulty handling, GRN reproducibility, SSSP round/relaxation
 * accounting against the software reference, and SSSP's rejection of
 * an edge that leaves the graph.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "accel/algo/graph.hh"
#include "accel/algo/reed_solomon.hh"
#include "accel/algo/sha.hh"
#include "accel/crypto_accels.hh"
#include "accel/linkedlist_accel.hh"
#include "accel/membench_accel.hh"
#include "accel/signal_accels.hh"
#include "accel/sssp_accel.hh"
#include "hv/system.hh"
#include "hv/workloads.hh"

using namespace optimus;
using namespace optimus::hv;

namespace {

TEST(LinkedListModelTest, CountLimitStopsTheWalkEarly)
{
    System sys(makeOptimusConfig("LL", 1));
    AccelHandle &h = sys.attach(0, 1ULL << 30);
    auto layout = workload::buildLinkedList(h, 1000, 3);
    h.writeAppReg(accel::LinkedlistAccel::kRegHead,
                  layout.head.value());
    h.writeAppReg(accel::LinkedlistAccel::kRegCount, 250);
    h.start();
    EXPECT_EQ(h.wait(), accel::Status::kDone);
    EXPECT_EQ(h.progress(), 250u);
}

TEST(LinkedListModelTest, StrictlySerialOneOutstandingRead)
{
    System sys(makeOptimusConfig("LL", 1));
    AccelHandle &h = sys.attach(0, 1ULL << 30);
    auto layout = workload::buildLinkedList(h, 512, 4);
    h.writeAppReg(accel::LinkedlistAccel::kRegHead,
                  layout.head.value());
    h.writeAppReg(accel::LinkedlistAccel::kRegCount, 0);
    sim::Tick t0 = sys.eq.now();
    h.start();
    EXPECT_EQ(h.wait(), accel::Status::kDone);
    double per_node = static_cast<double>(sys.eq.now() - t0) / 512;
    // Serial pointer chasing cannot beat one round trip per node.
    EXPECT_GT(per_node, 400.0 * sim::kTickNs);
}

TEST(MembenchModelTest, TargetModeCompletesExactCount)
{
    System sys(makeOptimusConfig("MB", 1));
    AccelHandle &h = sys.attach(0, 1ULL << 30);
    mem::Gva buf = h.dmaAlloc(1ULL << 20, 64);
    h.writeAppReg(accel::MembenchAccel::kRegBase, buf.value());
    h.writeAppReg(accel::MembenchAccel::kRegWset, 1ULL << 20);
    h.writeAppReg(accel::MembenchAccel::kRegMode,
                  accel::MembenchAccel::kMixed);
    h.writeAppReg(accel::MembenchAccel::kRegTarget, 5000);
    h.start();
    EXPECT_EQ(h.wait(), accel::Status::kDone);
    EXPECT_EQ(h.result(), 5000u);
    auto &port = sys.platform.accel(0).dma();
    // Mixed mode alternates reads and writes.
    EXPECT_NEAR(static_cast<double>(port.readsIssued()),
                static_cast<double>(port.writesIssued()), 8.0);
}

TEST(MembenchModelTest, GapRegisterThrottlesThroughput)
{
    double rates[2];
    for (int i = 0; i < 2; ++i) {
        System sys(makeOptimusConfig("MB", 1));
        AccelHandle &h = sys.attach(0, 1ULL << 30);
        mem::Gva buf = h.dmaAlloc(1ULL << 20, 64);
        h.writeAppReg(accel::MembenchAccel::kRegBase, buf.value());
        h.writeAppReg(accel::MembenchAccel::kRegWset, 1ULL << 20);
        h.writeAppReg(accel::MembenchAccel::kRegTarget, 0);
        h.writeAppReg(accel::MembenchAccel::kRegGap,
                      i == 0 ? 0 : 64);
        h.start();
        sys.run(sys.eq.now() + 200 * sim::kTickUs);
        std::uint64_t p0 = sys.hv.peekProgress(h.vaccel());
        sys.run(sys.eq.now() + 400 * sim::kTickUs);
        rates[i] = static_cast<double>(
            sys.hv.peekProgress(h.vaccel()) - p0);
    }
    // Gap 64 at 400 MHz caps at one op per 160 ns.
    EXPECT_GT(rates[0], 4 * rates[1]);
}

TEST(RsdModelTest, UncorrectableCodewordsAreCountedAndZeroed)
{
    System sys(makeOptimusConfig("RSD", 1));
    AccelHandle &h = sys.attach(0, 1ULL << 30);

    // Two codewords: one clean, one destroyed beyond t errors.
    algo::ReedSolomon rs;
    std::vector<std::uint8_t> stream(2 * 256, 0);
    std::uint8_t msg[algo::ReedSolomon::kK];
    for (std::size_t i = 0; i < sizeof(msg); ++i)
        msg[i] = static_cast<std::uint8_t>(i + 1);
    rs.encode(msg, stream.data());
    rs.encode(msg, stream.data() + 256);
    for (std::size_t i = 0; i < 40; ++i) // > 2t damage
        stream[256 + i * 5] ^= 0xa5;

    mem::Gva src = h.dmaAlloc(stream.size());
    mem::Gva dst = h.dmaAlloc(stream.size());
    h.memWrite(src, stream.data(), stream.size());
    h.writeAppReg(accel::stream_reg::kSrc, src.value());
    h.writeAppReg(accel::stream_reg::kDst, dst.value());
    h.writeAppReg(accel::stream_reg::kLen, stream.size());
    h.start();
    ASSERT_EQ(h.wait(), accel::Status::kDone);

    // Slot 0 decoded clean; slot 1 zero-filled.
    std::vector<std::uint8_t> out(algo::ReedSolomon::kK);
    h.memRead(dst, out.data(), out.size());
    EXPECT_EQ(0, std::memcmp(out.data(), msg, out.size()));
    h.memRead(dst + 256, out.data(), out.size());
    for (auto b : out)
        EXPECT_EQ(b, 0);
}

TEST(BtcModelTest, FindsTheFirstQualifyingNonce)
{
    System sys(makeOptimusConfig("BTC", 1));
    AccelHandle &h = sys.attach(0, 1ULL << 30);
    std::vector<std::uint8_t> header(80, 0x42);
    std::memset(header.data() + 76, 0, 4);
    mem::Gva src = h.dmaAlloc(128);
    h.memWrite(src, header.data(), 80);
    h.writeAppReg(accel::BtcAccel::kRegSrc, src.value());
    h.writeAppReg(accel::BtcAccel::kRegStartNonce, 0);
    h.writeAppReg(accel::BtcAccel::kRegZeroBits, 8);
    h.start();
    ASSERT_EQ(h.wait(), accel::Status::kDone);

    // The winning nonce qualifies and no smaller nonce does.
    auto nonce = static_cast<std::uint32_t>(h.result());
    auto qualifies = [&](std::uint32_t n) {
        std::vector<std::uint8_t> hd = header;
        std::memcpy(hd.data() + 76, &n, 4);
        auto d = algo::doubleSha256(hd.data(), 80);
        return d[0] == 0;
    };
    EXPECT_TRUE(qualifies(nonce));
    for (std::uint32_t n = 0; n < nonce; ++n)
        ASSERT_FALSE(qualifies(n)) << n;
}

TEST(GrnModelTest, OutputIsBitExactAcrossRuns)
{
    std::vector<double> runs[2];
    for (int r = 0; r < 2; ++r) {
        System sys(makeOptimusConfig("GRN", 1));
        AccelHandle &h = sys.attach(0, 1ULL << 30);
        mem::Gva dst = h.dmaAlloc(1000 * 8);
        h.writeAppReg(accel::GrnAccel::kRegDst, dst.value());
        h.writeAppReg(accel::GrnAccel::kRegCount, 1000);
        h.writeAppReg(accel::GrnAccel::kRegSeed, 77);
        h.start();
        EXPECT_EQ(h.wait(), accel::Status::kDone);
        runs[r].resize(1000);
        h.memRead(dst, runs[r].data(), 8000);
    }
    EXPECT_EQ(runs[0], runs[1]);
}

TEST(SsspModelTest, RelaxationAndRoundCountsAreConsistent)
{
    System sys(makeOptimusConfig("SSSP", 1));
    AccelHandle &h = sys.attach(0, 1ULL << 30);
    auto g = algo::makeRandomGraph(500, 5000, 63, 21);
    auto layout = workload::placeGraph(h, g, 0);
    workload::programSssp(h, layout);
    h.start();
    ASSERT_EQ(h.wait(), accel::Status::kDone);

    // Distances match Dijkstra; relaxations at least cover every
    // reachable vertex (each got its final value via >= 1 update).
    auto expect = algo::dijkstra(g, 0);
    std::vector<std::uint32_t> dist(g.numVertices());
    h.memRead(layout.dist, dist.data(), 4 * g.numVertices());
    EXPECT_EQ(dist, expect);

    std::uint64_t reachable = 0;
    for (std::uint32_t v = 1; v < g.numVertices(); ++v)
        reachable += expect[v] != algo::kDistInf ? 1 : 0;
    EXPECT_GE(h.result(), reachable);
}

TEST(SsspModelTest, WindowRegisterChangesRuntimeNotResult)
{
    auto g = algo::makeRandomGraph(300, 3000, 63, 22);
    std::vector<std::uint32_t> results[2];
    sim::Tick runtimes[2];
    int i = 0;
    for (std::uint32_t window : {2u, 64u}) {
        System sys(makeOptimusConfig("SSSP", 1));
        AccelHandle &h = sys.attach(0, 1ULL << 30);
        auto layout = workload::placeGraph(h, g, 0);
        workload::programSssp(h, layout);
        h.writeAppReg(accel::SsspAccel::kRegWindow, window);
        sim::Tick t0 = sys.eq.now();
        h.start();
        EXPECT_EQ(h.wait(), accel::Status::kDone);
        runtimes[i] = sys.eq.now() - t0;
        results[i].resize(g.numVertices());
        h.memRead(layout.dist, results[i].data(),
                  4 * g.numVertices());
        ++i;
    }
    EXPECT_EQ(results[0], results[1]);
    EXPECT_GT(runtimes[0], runtimes[1]); // narrow window is slower
}

TEST(SsspModelTest, EdgeOutOfTheGraphIsADeviceError)
{
    // Edge records are guest memory. Point every edge past NVERT, at
    // a dist word that reads as unreached, so a relaxation would
    // succeed there: the job must fail rather than index past the
    // next-round set.
    System sys(makeOptimusConfig("SSSP", 1));
    AccelHandle &h = sys.attach(0, 1ULL << 30);
    auto g = algo::makeRandomGraph(64, 256, 63, 23);
    const std::uint32_t outside = g.numVertices() + 16;
    for (std::uint32_t &d : g.dest)
        d = outside;
    auto layout = workload::placeGraph(h, g, 0);
    h.process().writeValue<std::uint32_t>(layout.dist + 4ULL * outside,
                                          algo::kDistInf);
    workload::programSssp(h, layout);
    h.start();
    EXPECT_EQ(h.wait(), accel::Status::kError);
    EXPECT_NE(h.errorStatus() & accel::errst::kDeviceError, 0u);
}

} // namespace

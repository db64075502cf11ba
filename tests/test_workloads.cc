/**
 * @file
 * Workload-generator properties and end-to-end size sweeps:
 * determinism per seed, scattered-list structure, odd (non-line-
 * multiple) stream lengths, and the wrap-around offset arithmetic of
 * page table slicing.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

#include "accel/linkedlist_accel.hh"
#include "fpga/auditor.hh"
#include "hv/system.hh"
#include "hv/workloads.hh"
#include "sim/rng.hh"

using namespace optimus;
using namespace optimus::hv;

namespace {

TEST(ScatteredListTest, NodesAreDistinctAndCircular)
{
    System sys(makeOptimusConfig("LL", 1));
    AccelHandle &h = sys.attach(0, 1ULL << 30);
    auto layout =
        workload::buildScatteredLinkedList(h, 8ULL << 20, 1000, 5);
    EXPECT_EQ(layout.nodes, 1000u);

    // Follow the chain: 1000 distinct line-aligned nodes, and the
    // 1000th hop returns to the head (circular).
    std::set<std::uint64_t> seen;
    std::uint64_t cur = layout.head.value();
    std::uint64_t checksum = 0;
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(cur % 64, 0u);
        EXPECT_TRUE(seen.insert(cur).second) << "revisit at " << i;
        accel::LinkedListNode node{};
        h.memRead(mem::Gva(cur), &node, sizeof(node));
        checksum += node.payload[0];
        cur = node.next;
    }
    EXPECT_EQ(cur, layout.head.value());
    EXPECT_EQ(checksum, layout.checksum);
}

TEST(ScatteredListTest, DeterministicPerSeed)
{
    System sys(makeOptimusConfig("LL", 2));
    AccelHandle &a = sys.attach(0, 1ULL << 30);
    AccelHandle &b = sys.attach(1, 1ULL << 30);
    auto la = workload::buildScatteredLinkedList(a, 1ULL << 20, 100,
                                                 9);
    auto lb = workload::buildScatteredLinkedList(b, 1ULL << 20, 100,
                                                 9);
    // Same seed: same structure (same checksum and head offset
    // within the respective regions).
    EXPECT_EQ(la.checksum, lb.checksum);
    EXPECT_EQ(la.head - a.vaccel().windowBase(),
              lb.head - b.vaccel().windowBase());
}

/** Streams of odd length must round-trip through every app. */
class OddSizeTest
    : public ::testing::TestWithParam<std::tuple<std::string,
                                                 std::uint64_t>>
{
};

TEST_P(OddSizeTest, NonLineMultipleLengthsWork)
{
    const auto &[app, bytes] = GetParam();
    System sys(makeOptimusConfig(app, 1));
    AccelHandle &h = sys.attach(0, 1ULL << 30);
    auto wl = workload::Workload::create(app, h, bytes, 77);
    wl->program();
    h.start();
    ASSERT_EQ(h.wait(), accel::Status::kDone);
    EXPECT_TRUE(wl->verify());
}

TEST(WorkloadVerifyTest, VerifyNeverAdvancesSimulatedTime)
{
    // verify() reads RESULT and PROGRESS through the hypervisor's
    // peeks, not trapped MMIO reads, so a completion handler may call
    // it: no trap is taken and the clock does not move.
    System sys(makeOptimusConfig("MB", 1));
    AccelHandle &h = sys.attach(0, 1ULL << 30);
    auto wl = workload::Workload::create("MB", h, 64 * 1024, 3);
    wl->program();
    h.start();
    ASSERT_EQ(h.wait(), accel::Status::kDone);
    const sim::Tick now = sys.now();
    const std::uint64_t traps = sys.hv.traps();
    EXPECT_TRUE(wl->verify());
    EXPECT_EQ(sys.now(), now);
    EXPECT_EQ(sys.hv.traps(), traps);
    // The peeks read what the trapped reads return.
    EXPECT_EQ(h.peekResult(), h.result());
    EXPECT_EQ(h.peekProgress(), h.progress());
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, OddSizeTest,
    ::testing::Combine(::testing::Values("MD5", "SHA", "GRN", "MB",
                                         "LL", "SW"),
                       ::testing::Values(1024, 100000, 333000)),
    [](const auto &info) {
        return std::get<0>(info.param) + "_" +
               std::to_string(std::get<1>(info.param));
    });

TEST(WorkloadDeterminismTest, SameSeedSameResult)
{
    for (const std::string app : {"MD5", "SHA", "RSD", "SW"}) {
        std::uint64_t results[2];
        for (int run = 0; run < 2; ++run) {
            System sys(makeOptimusConfig(app, 1));
            AccelHandle &h = sys.attach(0, 1ULL << 30);
            auto wl = workload::Workload::create(app, h, 64 * 1024,
                                                 123);
            wl->program();
            h.start();
            EXPECT_EQ(h.wait(), accel::Status::kDone);
            results[run] = h.result();
        }
        EXPECT_EQ(results[0], results[1]) << app;
    }
}

/**
 * Page-table-slicing offset arithmetic: iova = gva + offset must
 * land in the slice for arbitrary window/slice placements, including
 * when the slice base is numerically below the window base (the
 * offset wraps mod 2^64).
 */
TEST(SlicingArithmeticTest, OffsetWrapsCorrectly)
{
    sim::EventQueue eq;
    std::vector<ccip::DmaTxnPtr> out;
    fpga::Auditor auditor(eq, 400, 0, 1);
    auditor.setUpstream(
        [&](ccip::DmaTxnPtr t) { out.push_back(std::move(t)); });

    sim::Rng rng(11);
    for (int trial = 0; trial < 200; ++trial) {
        std::uint64_t window_base =
            (rng.below(1ULL << 26)) << 21; // up to ~128 TB, 2M align
        std::uint64_t slice_base = (1 + rng.below(511)) *
                                   ((64ULL << 30) + (128ULL << 20));
        fpga::OffsetEntry e;
        e.valid = true;
        e.gvaBase = window_base;
        e.offset = slice_base - window_base; // mod 2^64 on purpose
        e.window = 64ULL << 30;
        auditor.setOffsetEntry(e);

        std::uint64_t in_window = rng.below(e.window - 64) & ~63ULL;
        ccip::DmaTxnPtr t = ccip::makeTxn(eq.arena());
        t->gva = mem::Gva(window_base + in_window);
        t->bytes = 64;
        out.clear();
        auditor.dmaFromAccel(std::move(t));
        eq.runAll();
        ASSERT_EQ(out.size(), 1u) << trial;
        EXPECT_EQ(out[0]->iova.value(), slice_base + in_window)
            << trial;
    }
}

TEST(SlicingArithmeticTest, EveryOffsetRejectsOutsideWindow)
{
    sim::EventQueue eq;
    fpga::Auditor auditor(eq, 400, 0, 1);
    auditor.setUpstream([](ccip::DmaTxnPtr) {
        FAIL() << "out-of-window DMA escaped the auditor";
    });

    fpga::OffsetEntry e;
    e.valid = true;
    e.gvaBase = 0x200000000000ULL;
    e.offset = (64ULL << 30) - e.gvaBase;
    e.window = 64ULL << 30;
    auditor.setOffsetEntry(e);

    sim::Rng rng(13);
    for (int trial = 0; trial < 200; ++trial) {
        // Below, above, or wildly outside the window.
        std::uint64_t gva;
        switch (trial % 3) {
          case 0:
            gva = rng.below(e.gvaBase);
            break;
          case 1:
            gva = e.gvaBase + e.window + rng.below(1ULL << 40);
            break;
          default:
            gva = rng.next();
            if (gva >= e.gvaBase && gva < e.gvaBase + e.window)
                gva = e.gvaBase + e.window + 64;
            break;
        }
        ccip::DmaTxnPtr t = ccip::makeTxn(eq.arena());
        t->gva = mem::Gva(gva & ~63ULL);
        t->bytes = 64;
        bool error = false;
        t->onComplete = [&](ccip::DmaTxn &d) { error = d.error; };
        auditor.dmaFromAccel(std::move(t));
        eq.runAll();
        EXPECT_TRUE(error) << "gva 0x" << std::hex << gva;
    }
    EXPECT_EQ(auditor.rejectedDmas(), 200u);
}

} // namespace

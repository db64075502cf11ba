/**
 * @file
 * IOMMU and IOTLB tests: the direct-mapped set geometry the paper
 * reverse-engineers (bits 21-29 for 2 MB pages), conflict behaviour
 * that motivates the 128 MB inter-slice gap, page-walk timing and
 * queueing, and fault reporting.
 */

#include <gtest/gtest.h>

#include <vector>

#include "iommu/iommu.hh"
#include "iommu/iotlb.hh"
#include "sim/event_queue.hh"
#include "sim/platform_params.hh"

using namespace optimus;
using namespace optimus::iommu;
using optimus::mem::Hpa;
using optimus::mem::Iova;

namespace {

TEST(IotlbTest, SetIndexUses2MPageBits21To29)
{
    Iotlb tlb(512, mem::kPage2M);
    // Bits below 21 do not affect the set.
    EXPECT_EQ(tlb.setIndex(Iova(0)), tlb.setIndex(Iova(0x1fffff)));
    // Bit 21 is the lowest index bit.
    EXPECT_EQ(tlb.setIndex(Iova(1ULL << 21)), 1u);
    EXPECT_EQ(tlb.setIndex(Iova(5ULL << 21)), 5u);
    // Index wraps at 512 sets: pages 2^9 apart conflict
    // (p1 == p2 mod 2^9, exactly the paper's conflict rule).
    EXPECT_EQ(tlb.setIndex(Iova(0)), tlb.setIndex(Iova(512ULL << 21)));
}

TEST(IotlbTest, SetIndexUses4KPageBits12To20)
{
    Iotlb tlb(512, mem::kPage4K);
    EXPECT_EQ(tlb.setIndex(Iova(0)), tlb.setIndex(Iova(0xfff)));
    EXPECT_EQ(tlb.setIndex(Iova(1ULL << 12)), 1u);
    EXPECT_EQ(tlb.setIndex(Iova(0)),
              tlb.setIndex(Iova(512ULL << 12)));
}

TEST(IotlbTest, HitAfterInsertMissBefore)
{
    Iotlb tlb(512, mem::kPage2M);
    EXPECT_FALSE(tlb.lookup(Iova(0x12345678)).has_value());
    EXPECT_EQ(tlb.misses(), 1u);
    tlb.insert(Iova(0x12200000), Hpa(0x40000000));
    auto hit = tlb.lookup(Iova(0x12345678));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->value(), 0x40000000u + 0x145678u);
    EXPECT_EQ(tlb.hits(), 1u);
}

TEST(IotlbTest, ConflictingPagesEvictEachOther)
{
    Iotlb tlb(512, mem::kPage2M);
    Iova a(0);
    Iova b(512ULL << 21); // same set index as a
    tlb.insert(a, Hpa(0x1000000));
    tlb.insert(b, Hpa(0x2000000));
    EXPECT_EQ(tlb.conflictEvictions(), 1u);
    EXPECT_FALSE(tlb.lookup(a).has_value()); // evicted
    EXPECT_TRUE(tlb.lookup(b).has_value());
}

TEST(IotlbTest, The128MGapSeparatesSliceSetIndices)
{
    // The conflict-mitigation design point: 64 GB slices are exact
    // multiples of the 1 GB IOTLB reach, so equal page offsets in
    // different slices collide; a 128 MB gap shifts the set index by
    // 64 sets per slice.
    Iotlb tlb(512, mem::kPage2M);
    std::uint64_t slice = 64ULL << 30;
    std::uint64_t gap = 128ULL << 20;
    // Without the gap: same page offset in every slice collides.
    EXPECT_EQ(tlb.setIndex(Iova(1 * slice)),
              tlb.setIndex(Iova(2 * slice)));
    // With the gap: distinct sets for the eight accelerators.
    for (std::uint64_t i = 1; i < 8; ++i) {
        EXPECT_NE(tlb.setIndex(Iova(1 * (slice + gap))),
                  tlb.setIndex(Iova((i + 1) * (slice + gap))))
            << "slices 0 and " << i;
    }
    EXPECT_EQ(tlb.setIndex(Iova(2 * (slice + gap))) -
                  tlb.setIndex(Iova(1 * (slice + gap))),
              64u);
}

TEST(IotlbTest, InvalidateAllAndSingle)
{
    Iotlb tlb(512, mem::kPage2M);
    tlb.insert(Iova(0), Hpa(0));
    tlb.insert(Iova(1ULL << 21), Hpa(mem::kPage2M));
    tlb.invalidate(Iova(0x100)); // covers page 0
    EXPECT_FALSE(tlb.lookup(Iova(0)).has_value());
    EXPECT_TRUE(tlb.lookup(Iova(1ULL << 21)).has_value());
    tlb.invalidateAll();
    EXPECT_FALSE(tlb.lookup(Iova(1ULL << 21)).has_value());
}

class IommuFixture : public ::testing::Test
{
  protected:
    IommuFixture() : iommu(eq, params) {}

    sim::EventQueue eq;
    sim::PlatformParams params;
    Iommu iommu{eq, params};
};

TEST_F(IommuFixture, HitIsFastMissPaysWalk)
{
    iommu.pageTable().map(Iova(0), Hpa(mem::kPage2M));

    sim::Tick first_done = 0;
    iommu.translate(Iova(0x40), false, [&](TranslationResult r) {
        EXPECT_FALSE(r.fault);
        EXPECT_EQ(r.hpa.value(), mem::kPage2M + 0x40);
        first_done = eq.now();
    });
    eq.runAll();
    // First access misses: full walk latency.
    EXPECT_GE(first_done, params.pageWalkLatency);

    sim::Tick second_done = 0;
    sim::Tick start = eq.now();
    iommu.translate(Iova(0x80), false, [&](TranslationResult r) {
        EXPECT_FALSE(r.fault);
        second_done = eq.now() - start;
    });
    eq.runAll();
    // Second access hits: a couple of fabric cycles.
    EXPECT_LT(second_done, 20 * sim::kTickNs);
}

TEST_F(IommuFixture, UnmappedAccessFaults)
{
    int faults_seen = 0;
    iommu.setFaultHandler(
        [&](Iova, bool) { ++faults_seen; });
    bool fault_result = false;
    iommu.translate(Iova(0xdead000000), true,
                    [&](TranslationResult r) {
                        fault_result = r.fault;
                    });
    eq.runAll();
    EXPECT_TRUE(fault_result);
    EXPECT_EQ(faults_seen, 1);
    EXPECT_EQ(iommu.faults(), 1u);
}

TEST_F(IommuFixture, ReadOnlyPageFaultsOnWrite)
{
    iommu.pageTable().map(Iova(0), Hpa(mem::kPage2M),
                          mem::PagePerms{true, false});
    bool read_fault = true;
    bool write_fault = false;
    iommu.translate(Iova(0), false, [&](TranslationResult r) {
        read_fault = r.fault;
    });
    iommu.translate(Iova(0), true, [&](TranslationResult r) {
        write_fault = r.fault;
    });
    eq.runAll();
    EXPECT_FALSE(read_fault);
    EXPECT_TRUE(write_fault);
}

TEST_F(IommuFixture, ConcurrentWalksQueueBeyondWalkerCapacity)
{
    // Map eight pages; fire eight concurrent misses. With two
    // concurrent walkers, completions arrive in four waves.
    std::vector<sim::Tick> done;
    for (int i = 0; i < 8; ++i) {
        iommu.pageTable().map(Iova(i * mem::kPage2M),
                              Hpa((i + 1) * mem::kPage2M));
    }
    for (int i = 0; i < 8; ++i) {
        iommu.translate(Iova(i * mem::kPage2M), false,
                        [&](TranslationResult r) {
                            EXPECT_FALSE(r.fault);
                            done.push_back(eq.now());
                        });
    }
    eq.runAll();
    ASSERT_EQ(done.size(), 8u);
    EXPECT_NEAR(static_cast<double>(done.front()),
                static_cast<double>(params.pageWalkLatency), 1000.0);
    // The last completion waited behind three walk generations.
    EXPECT_GE(done.back(), 4 * params.pageWalkLatency);
    EXPECT_EQ(iommu.walks(), 8u);
}

TEST_F(IommuFixture, CoalescedWaitersFinishInArrivalOrderAtTheWalk)
{
    // Page 0 is read-only; page 1 is writable.
    iommu.pageTable().map(Iova(0), Hpa(4 * mem::kPage2M),
                          mem::PagePerms{true, false});
    iommu.pageTable().map(Iova(mem::kPage2M), Hpa(8 * mem::kPage2M));
    std::vector<bool> faulted_writes;
    iommu.setFaultHandler(
        [&](Iova, bool write) { faulted_writes.push_back(write); });

    struct Done
    {
        int id;
        sim::Tick at;
        bool fault;
        std::uint64_t hpa;
    };
    std::vector<Done> done;
    auto issue = [&](int id, std::uint64_t iova, bool write) {
        iommu.translate(Iova(iova), write, [&, id](TranslationResult r) {
            done.push_back(Done{id, eq.now(), r.fault, r.hpa.value()});
        });
    };
    // Two walks start at tick 0, page 0's first; the later misses on
    // each page coalesce onto its walk.
    issue(0, 0x40, false);
    issue(1, mem::kPage2M + 0x80, false);
    eq.runUntil(10 * sim::kTickNs);
    issue(2, 0x1000, true);
    issue(3, 0x2000, false);
    issue(4, mem::kPage2M + 0x3000, true);
    eq.runAll();

    EXPECT_EQ(iommu.walks(), 2u);
    EXPECT_EQ(iommu.coalescedWalks(), 3u);
    // Walk order, then arrival order within a walk, all at the walks'
    // completion tick.
    ASSERT_EQ(done.size(), 5u);
    const int order[] = {0, 2, 3, 1, 4};
    for (std::size_t i = 0; i < done.size(); ++i) {
        EXPECT_EQ(done[i].id, order[i]) << i;
        EXPECT_EQ(done[i].at, params.pageWalkLatency) << i;
    }
    // Only the write to the read-only page faults.
    EXPECT_FALSE(done[0].fault);
    EXPECT_EQ(done[0].hpa, 4 * mem::kPage2M + 0x40);
    EXPECT_TRUE(done[1].fault);
    EXPECT_FALSE(done[2].fault);
    EXPECT_EQ(done[2].hpa, 4 * mem::kPage2M + 0x2000);
    EXPECT_FALSE(done[3].fault);
    EXPECT_EQ(done[3].hpa, 8 * mem::kPage2M + 0x80);
    EXPECT_FALSE(done[4].fault);
    EXPECT_EQ(done[4].hpa, 8 * mem::kPage2M + 0x3000);
    EXPECT_EQ(faulted_writes, std::vector<bool>{true});
    EXPECT_EQ(iommu.faults(), 1u);
}

TEST_F(IommuFixture, SetPageBytesRebuildsStructures)
{
    iommu.pageTable().map(Iova(0), Hpa(mem::kPage2M));
    iommu.setPageBytes(mem::kPage4K);
    EXPECT_EQ(iommu.pageBytes(), mem::kPage4K);
    EXPECT_EQ(iommu.pageTable().size(), 0u); // mappings discarded
    EXPECT_EQ(iommu.iotlb().pageBytes(), mem::kPage4K);
}

} // namespace

/**
 * @file
 * Memory substrate tests: sparse host memory, the frame allocator
 * with pinning, the generic page table, and the timed controller.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "mem/address.hh"
#include "mem/frame_allocator.hh"
#include "mem/host_memory.hh"
#include "mem/memory_controller.hh"
#include "mem/page_table.hh"
#include "sim/event_queue.hh"
#include "sim/platform_params.hh"

using namespace optimus;
using namespace optimus::mem;

namespace {

TEST(AddressTest, TypedArithmetic)
{
    Gva a(0x1000);
    EXPECT_EQ((a + 0x234).value(), 0x1234u);
    EXPECT_EQ((a + 0x234) - a, 0x234u);
    EXPECT_EQ(Gva(0x12345678).pageBase(kPage4K).value(), 0x12345000u);
    EXPECT_EQ(Gva(0x12345678).pageOffset(kPage4K), 0x678u);
    EXPECT_EQ(Gva(0x12345678).pageBase(kPage2M).value(), 0x12200000u);
    EXPECT_LT(Gva(1), Gva(2));
}

TEST(HostMemoryTest, ReadWriteRoundTrip)
{
    HostMemory m(1ULL << 30);
    std::uint8_t data[100];
    for (int i = 0; i < 100; ++i)
        data[i] = static_cast<std::uint8_t>(i);
    m.write(Hpa(0x12345), data, sizeof(data));
    std::uint8_t back[100] = {};
    m.read(Hpa(0x12345), back, sizeof(back));
    EXPECT_EQ(0, std::memcmp(data, back, sizeof(data)));
}

TEST(HostMemoryTest, UntouchedMemoryReadsAsZeroWithoutMaterializing)
{
    HostMemory m(1ULL << 30);
    std::uint8_t buf[64];
    std::memset(buf, 0xff, sizeof(buf));
    m.read(Hpa(0x100000), buf, sizeof(buf));
    for (auto b : buf)
        EXPECT_EQ(b, 0);
    EXPECT_EQ(m.framesTouched(), 0u);
}

TEST(HostMemoryTest, CrossFrameAccess)
{
    HostMemory m(1ULL << 30);
    std::vector<std::uint8_t> data(3 * kPage4K);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 13);
    Hpa base(kPage4K - 100); // straddles three frames
    m.write(base, data.data(), data.size());
    std::vector<std::uint8_t> back(data.size());
    m.read(base, back.data(), back.size());
    EXPECT_EQ(data, back);
    EXPECT_EQ(m.framesTouched(), 4u);
}

TEST(HostMemoryTest, TypedValueAccessors)
{
    HostMemory m(1ULL << 30);
    m.writeValue<std::uint64_t>(Hpa(0x40), 0xdeadbeefcafef00dULL);
    EXPECT_EQ(m.readValue<std::uint64_t>(Hpa(0x40)),
              0xdeadbeefcafef00dULL);
}

TEST(HostMemoryTest, ScratchModeDropsWritesToColdFrames)
{
    HostMemory m(1ULL << 30);
    std::uint8_t v = 7;
    m.write(Hpa(0), &v, 1); // warm frame 0
    m.setScratchWrites(true);
    m.write(Hpa(kPage4K), &v, 1); // cold frame: dropped
    m.write(Hpa(1), &v, 1);       // warm frame: kept
    EXPECT_EQ(m.framesTouched(), 1u);
    EXPECT_EQ(m.readValue<std::uint8_t>(Hpa(1)), 7);
    EXPECT_EQ(m.readValue<std::uint8_t>(Hpa(kPage4K)), 0);
}

TEST(FrameAllocatorTest, AllocateFreeReuse)
{
    FrameAllocator fa(Hpa(kPage4K), Hpa(16 * kPage4K));
    Hpa a = fa.allocate();
    Hpa b = fa.allocate();
    EXPECT_NE(a.value(), b.value());
    EXPECT_EQ(fa.framesAllocated(), 2u);
    fa.free(a);
    Hpa c = fa.allocate(); // free list reuses a
    EXPECT_EQ(c.value(), a.value());
}

TEST(FrameAllocatorTest, ContiguousAllocationIsContiguous)
{
    FrameAllocator fa(Hpa(0), Hpa(1024 * kPage4K));
    Hpa base = fa.allocateContiguous(512);
    Hpa next = fa.allocate();
    EXPECT_EQ(next.value(), base.value() + 512 * kPage4K);
}

TEST(FrameAllocatorTest, PinningTracksAndBlocksFree)
{
    FrameAllocator fa(Hpa(0), Hpa(64 * kPage4K));
    Hpa f = fa.allocate();
    fa.pin(f);
    EXPECT_TRUE(fa.isPinned(f));
    EXPECT_EQ(fa.framesPinned(), 1u);
    EXPECT_DEATH(fa.free(f), "pinned");
    fa.unpin(f);
    fa.free(f);
    EXPECT_EQ(fa.framesAllocated(), 0u);
}

TEST(PageTableTest, MapTranslateUnmap)
{
    PageTable<Gva, Gpa> pt(kPage4K);
    pt.map(Gva(0x1000), Gpa(0x8000));
    auto t = pt.translate(Gva(0x1234));
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->value(), 0x8234u);
    EXPECT_FALSE(pt.translate(Gva(0x2000)).has_value());
    pt.unmap(Gva(0x1000));
    EXPECT_FALSE(pt.translate(Gva(0x1234)).has_value());
}

TEST(PageTableTest, WritePermissionEnforced)
{
    PageTable<Iova, Hpa> pt(kPage2M);
    pt.map(Iova(0), Hpa(kPage2M), PagePerms{true, false});
    EXPECT_TRUE(pt.translate(Iova(0x100), false).has_value());
    EXPECT_FALSE(pt.translate(Iova(0x100), true).has_value());
}

TEST(PageTableTest, HugePageGranularity)
{
    PageTable<Iova, Hpa> pt(kPage2M);
    pt.map(Iova(0), Hpa(4 * kPage2M));
    auto t = pt.translate(Iova(kPage2M - 1));
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->value(), 4 * kPage2M + kPage2M - 1);
    // The next huge page is a separate mapping.
    EXPECT_FALSE(pt.translate(Iova(kPage2M)).has_value());
}

TEST(MemoryControllerTest, LatencyAndSerialization)
{
    sim::EventQueue eq;
    sim::PlatformParams p;
    MemoryController mc(eq, p);

    sim::Tick first = mc.admit(64);
    sim::Tick second = mc.admit(64);
    // First access: serialization + latency.
    sim::Tick ser = static_cast<sim::Tick>(
        64.0 / (p.dramGbps / sim::kTickNs));
    EXPECT_EQ(first, ser + p.dramLatency);
    // Second access waits for the first's serialization slot.
    EXPECT_EQ(second, 2 * ser + p.dramLatency);
    // Admission is first come, first served from the current tick:
    // once the controller is idle, an access starts when admitted.
    eq.runUntil(second);
    EXPECT_EQ(mc.admit(64), second + ser + p.dramLatency);
    EXPECT_EQ(mc.accesses(), 3u);
}

} // namespace

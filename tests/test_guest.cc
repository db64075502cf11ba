/**
 * @file
 * Guest-stack tests: VM construction and EPT, guest-physical
 * allocation, process address spaces (reservation, demand backing,
 * CPU read/write through two levels of translation), and the
 * consistency of the CPU and accelerator views of shared memory.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "guest/process.hh"
#include "guest/vm.hh"
#include "accel/streaming_accelerator.hh"
#include "hv/system.hh"
#include "mem/frame_allocator.hh"
#include "mem/host_memory.hh"

using namespace optimus;
using namespace optimus::guest;

namespace {

class GuestFixture : public ::testing::Test
{
  protected:
    mem::HostMemory memory{8ULL << 30};
    mem::FrameAllocator frames{mem::Hpa(mem::kPage2M),
                               mem::Hpa(8ULL << 30)};
};

TEST_F(GuestFixture, VmEptMapsWholeRamContiguously)
{
    Vm vm("vm0", memory, frames, 256ULL << 20);
    mem::Hpa first = vm.toHpa(mem::Gpa(0));
    mem::Hpa last = vm.toHpa(mem::Gpa((256ULL << 20) - 1));
    EXPECT_EQ(last - first, (256ULL << 20) - 1);
    EXPECT_EQ(vm.ept().pageBytes(), mem::kPage2M);
    EXPECT_EQ(vm.ept().size(), 128u);
}

TEST_F(GuestFixture, TwoVmsGetDisjointPhysicalMemory)
{
    Vm a("a", memory, frames, 64ULL << 20);
    Vm b("b", memory, frames, 64ULL << 20);
    mem::Hpa a_end = a.toHpa(mem::Gpa((64ULL << 20) - 1));
    mem::Hpa b_start = b.toHpa(mem::Gpa(0));
    EXPECT_LT(a_end.value(), b_start.value());
}

TEST_F(GuestFixture, GpaAllocatorRespectsAlignmentAndCapacity)
{
    Vm vm("vm", memory, frames, 16ULL << 20);
    mem::Gpa g1 = vm.allocGpa(100);
    mem::Gpa g2 = vm.allocGpa(mem::kPage2M, mem::kPage2M);
    EXPECT_EQ(g2.value() % mem::kPage2M, 0u);
    EXPECT_GT(g2.value(), g1.value());
    EXPECT_DEATH(vm.allocGpa(1ULL << 30), "out of RAM");
}

TEST_F(GuestFixture, ProcessDemandBackingAndTranslation)
{
    Vm vm("vm", memory, frames, 64ULL << 20);
    Process &p = vm.createProcess("proc");

    mem::Gva range = p.mmapNoReserve(8ULL << 20);
    EXPECT_FALSE(p.isBacked(range));

    mem::Gpa gpa = p.backPage(range);
    EXPECT_TRUE(p.isBacked(range));
    EXPECT_EQ(p.toGpa(range).value(), gpa.value());
    // Backing is idempotent.
    EXPECT_EQ(p.backPage(range).value(), gpa.value());
    // The adjacent page remains unbacked.
    EXPECT_FALSE(p.isBacked(range + mem::kPage2M));
}

TEST_F(GuestFixture, ReservationsDoNotOverlap)
{
    Vm vm("vm", memory, frames, 64ULL << 20);
    Process &p = vm.createProcess("proc");
    mem::Gva a = p.mmapNoReserve(100);
    mem::Gva b = p.mmapNoReserve(64ULL << 30);
    mem::Gva c = p.mmapNoReserve(100);
    EXPECT_GE(b - a, mem::kPage2M);
    EXPECT_GE(c - b, 64ULL << 30);
}

TEST_F(GuestFixture, WriteReadRoundTripAcrossPages)
{
    Vm vm("vm", memory, frames, 64ULL << 20);
    Process &p = vm.createProcess("proc");
    mem::Gva base = p.mmapNoReserve(8ULL << 20);

    // Straddle a 2 MB page boundary: demand-backs both pages.
    std::vector<std::uint8_t> data(1 << 20);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 31);
    mem::Gva at = base + mem::kPage2M - (1 << 19);
    p.write(at, data.data(), data.size());

    std::vector<std::uint8_t> back(data.size());
    p.read(at, back.data(), back.size());
    EXPECT_EQ(data, back);
    EXPECT_TRUE(p.isBacked(at));
    EXPECT_TRUE(p.isBacked(at + data.size() - 1));
}

TEST_F(GuestFixture, ReadingUnbackedMemoryDies)
{
    Vm vm("vm", memory, frames, 64ULL << 20);
    Process &p = vm.createProcess("proc");
    mem::Gva base = p.mmapNoReserve(1 << 20);
    std::uint8_t byte;
    EXPECT_DEATH(p.read(base, &byte, 1), "unbacked");
}

TEST(SharedMemoryViewTest, CpuSeesAcceleratorWritesAndViceVersa)
{
    // The defining property of the shared-memory model (Section 2):
    // CPU writes are visible to accelerator DMAs at the same guest
    // virtual addresses, and accelerator writes are visible to the
    // CPU, through GVA->GPA->HPA and GVA->IOVA->HPA respectively.
    hv::System sys(hv::makeOptimusConfig("AES", 1));
    hv::AccelHandle &h = sys.attach(0, 1ULL << 30);

    mem::Gva src = h.dmaAlloc(4096);
    mem::Gva dst = h.dmaAlloc(4096);
    std::vector<std::uint8_t> plain(4096, 0x5a);
    h.memWrite(src, plain.data(), plain.size()); // CPU writes

    h.writeAppReg(accel::stream_reg::kSrc, src.value());
    h.writeAppReg(accel::stream_reg::kDst, dst.value());
    h.writeAppReg(accel::stream_reg::kLen, 4096);
    h.start();
    ASSERT_EQ(h.wait(), accel::Status::kDone);

    // The accelerator read the CPU's plaintext and the CPU now reads
    // the accelerator's ciphertext — nonzero and not the plaintext.
    std::vector<std::uint8_t> cipher(4096);
    h.memRead(dst, cipher.data(), cipher.size()); // CPU reads
    EXPECT_NE(cipher, plain);
    bool all_zero = true;
    for (auto b : cipher)
        all_zero = all_zero && b == 0;
    EXPECT_FALSE(all_zero);
}

TEST(GuestApiDeathTest, PumpingFromAnEventIsFatal)
{
    // A synchronous guest-API call pumps the scheduler; from inside an
    // event it would run the queue under its own running event.
    hv::System sys(hv::makeOptimusConfig("MB", 1));
    hv::AccelHandle &h = sys.attach(0, 1ULL << 30);
    sys.eq.scheduleIn(sim::kTickUs, [&]() { (void)h.result(); });
    EXPECT_DEATH(sys.runAll(), "called from inside an event");
}

TEST(GuestApiDeathTest, PumpingFromABarrierCallbackIsFatal)
{
    // pumpUntil's predicate runs at barriers; entering the same
    // scheduler again from there is refused as well.
    hv::System sys(hv::makeOptimusConfig("MB", 1));
    hv::AccelHandle &h = sys.attach(0, 1ULL << 30);
    EXPECT_DEATH(sys.sched.pumpUntil([&]() {
        (void)h.result();
        return true;
    }),
                 "re-entered");
}

} // namespace

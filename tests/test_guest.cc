/**
 * @file
 * Guest-stack tests: VM construction and EPT, guest-physical
 * allocation, process address spaces (reservation, demand backing,
 * CPU read/write through two levels of translation), the
 * consistency of the CPU and accelerator views of shared memory, and
 * the tick each pumping guest call returns at: that of the event
 * that completes or wakes it.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "guest/process.hh"
#include "guest/vm.hh"
#include "accel/membench_accel.hh"
#include "accel/streaming_accelerator.hh"
#include "exp/builders.hh"
#include "fault/fault_injector.hh"
#include "fleet/fleet.hh"
#include "hv/system.hh"
#include "hv/workloads.hh"
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

// ---------------------------------------------------------------
// A guest call returns at the event that completes it: now() is that
// event's tick, not a later barrier.
// ---------------------------------------------------------------

TEST(GuestCallReturnTest, SoloCallsReturnAtTheirCompletingEvent)
{
    // Each call runs on System a; an identical System b issues the
    // same operation asynchronously and records the tick its
    // completion ran at. Both run the same events, so the ticks must
    // agree.
    const hv::PlatformConfig cfg = hv::makeOptimusConfig("SHA", 1);
    {
        hv::System a(cfg), b(cfg);
        hv::AccelHandle &ha = a.attach(0, 1ULL << 30);
        hv::AccelHandle &hb = b.attach(0, 1ULL << 30);
        (void)ha.mmioRead(accel::reg::kStateSize);
        sim::Tick done = 0;
        b.hv.mmioRead(hb.vaccel(), accel::reg::kStateSize,
                      [&](std::uint64_t) { done = b.now(); });
        b.runAll();
        EXPECT_GT(done, 0u);
        EXPECT_EQ(a.now(), done);
    }
    {
        hv::System a(cfg), b(cfg);
        hv::AccelHandle &ha = a.attach(0, 1ULL << 30);
        hv::AccelHandle &hb = b.attach(0, 1ULL << 30);
        (void)ha.dmaAlloc(6ULL << 20); // three page hypercalls
        sim::Tick done = 0;
        hb.heap().alloc(6ULL << 20, 64,
                        [&](mem::Gva) { done = b.now(); });
        b.runAll();
        EXPECT_GT(done, 0u);
        EXPECT_EQ(a.now(), done);
    }
    {
        // wait(): the DONE doorbell runs the completion handler.
        hv::System sys(cfg);
        hv::AccelHandle &h = sys.attach(0, 1ULL << 30);
        auto wl = hv::workload::Workload::create("SHA", h, 4096, 5);
        wl->program();
        sim::Tick doorbell = 0;
        h.vaccel().setCompletionHandler(
            [&](accel::Status) { doorbell = sys.now(); });
        h.start();
        ASSERT_EQ(h.wait(), accel::Status::kDone);
        EXPECT_GT(doorbell, 0u);
        EXPECT_EQ(sys.now(), doorbell);
    }
}

/** Records the tick of every trace record it is attached for. */
struct TickSink : sim::TraceSink
{
    std::vector<sim::Tick> ticks;
    void
    record(const sim::TraceBus &, const sim::TraceRecord &r) override
    {
        ticks.push_back(r.at);
    }
};

/** Program a SHA job of @p bytes on @p h and install its state
 *  buffer. */
std::unique_ptr<hv::workload::Workload>
shaJob(hv::AccelHandle &h, std::uint64_t bytes)
{
    auto wl = hv::workload::Workload::create("SHA", h, bytes, 9);
    wl->program();
    h.setupStateBuffer();
    return wl;
}

TEST(GuestCallReturnTest, RingWaitReturnsAtTheRingPost)
{
    // Stop source: the ring-post wake. The completion handler runs in
    // the same event. A second job keeps the device busy, so no drain
    // doorbell follows the first post.
    hv::System sys(hv::makeOptimusConfig("SHA", 1));
    hv::AccelHandle &h = sys.attach(0, 1ULL << 30);
    auto wl = shaJob(h, 64 * 1024);
    h.setupRing(8);
    std::vector<sim::Tick> posted;
    h.vaccel().setCompletionHandler(
        [&](accel::Status) { posted.push_back(sys.now()); });
    const std::uint64_t seq = h.ringSubmit();
    (void)h.ringSubmit();
    const ring::CompleteEntry e = h.ringWait(seq);
    EXPECT_EQ(static_cast<accel::Status>(e.status),
              accel::Status::kDone);
    ASSERT_EQ(posted.size(), 1u);
    EXPECT_EQ(sys.now(), posted[0]);
}

TEST(GuestCallReturnTest, FullRingSubmitReturnsOnePublishAfterTheAck)
{
    // Stop source: the ring-ack wake. System a blocks in ringSubmit on
    // a full 8-entry ring; its twin b stops at the same acknowledgement
    // through its own ring-ack hook, then submits on the freed slot.
    const hv::PlatformConfig cfg = hv::makeOptimusConfig("SHA", 1);
    hv::System a(cfg), b(cfg);
    hv::AccelHandle &ha = a.attach(0, 1ULL << 30);
    hv::AccelHandle &hb = b.attach(0, 1ULL << 30);
    auto wla = shaJob(ha, 64 * 1024);
    auto wlb = shaJob(hb, 64 * 1024);
    ha.setupRing(8);
    hb.setupRing(8);
    for (int i = 0; i < 16 && !ha.submitQueue().full(); ++i) {
        (void)ha.ringSubmit();
        (void)hb.ringSubmit();
    }
    ASSERT_TRUE(ha.submitQueue().full());
    ASSERT_TRUE(hb.submitQueue().full());
    ASSERT_EQ(a.now(), b.now());

    bool acked = false;
    b.platform.accel(0).setRingAckHook([&](accel::Accelerator &) {
        if (!acked)
            b.eq.requestStop();
        acked = true;
    });
    ASSERT_TRUE(b.eq.pumpUntil([&]() { return acked; }));
    ASSERT_FALSE(hb.submitQueue().full());
    const sim::Tick ack = b.now();
    (void)hb.ringSubmit();
    EXPECT_EQ(b.now(), ack + cfg.params.ringPublishCost);

    (void)ha.ringSubmit();
    EXPECT_EQ(a.now(), b.now());
}

TEST(GuestCallReturnTest, WaitEndedByQuarantineReturnsAtTheWatchdog)
{
    // Stop source: the quarantine wake, in the watchdog's event.
    TickSink fired; // outlives the System it is attached to
    hv::System sys(hv::makeOptimusConfig("MB", 1));
    auto inj = exp::installFaults(
        sys, "hang@0:at=20us;watchdog:deadline=50us");
    sys.trace.attach(&fired,
                     sim::traceMask(sim::TraceKind::kWatchdogFire));
    hv::AccelHandle &h = sys.attach(0, 1ULL << 30);
    exp::setupMembench(h, 1ULL << 20, accel::MembenchAccel::kRead, 3,
                       64);
    h.setupStateBuffer();
    h.start();
    EXPECT_EQ(h.wait(), accel::Status::kError);
    ASSERT_EQ(fired.ticks.size(), 1u);
    EXPECT_EQ(sys.now(), fired.ticks[0]);
}

TEST(GuestCallReturnTest, WaitEndedByForcedResetReturnsAtTheCede)
{
    // Stop source: the forced-reset wake. h1 has no state buffer, so
    // the slice expiry that preempts it resets it in the same event.
    sim::PlatformParams p = sim::PlatformParams::harpDefaults();
    p.timeSlice = 100 * sim::kTickUs;
    TickSink preempted; // outlives the System it is attached to
    hv::System sys(hv::makeOptimusConfig("MB", 1, p));
    hv::AccelHandle &h1 = sys.attach(0, 1ULL << 30);
    hv::AccelHandle &h2 = sys.attachShared(0);
    auto wl1 = hv::workload::Workload::create("MB", h1, 8ULL << 20, 1);
    wl1->program();
    auto wl2 = hv::workload::Workload::create("MB", h2, 1ULL << 20, 2);
    wl2->program();
    h2.setupStateBuffer();
    sys.trace.attach(&preempted,
                     sim::traceMask(sim::TraceKind::kSchedPreempt));
    h1.start();
    h2.start();
    EXPECT_EQ(h1.wait(), accel::Status::kError);
    EXPECT_EQ(sys.hv.forcedResets(), 1u);
    ASSERT_FALSE(preempted.ticks.empty());
    EXPECT_EQ(sys.now(), preempted.ticks.back());
}

TEST(GuestCallReturnTest, RingWaitEndedByQuarantineReturnsAtTheErrors)
{
    // Stop source: the wake where the hypervisor's error completions
    // land in the ring, one UPI crossing after the quarantine. The
    // completion handler runs in that event.
    hv::System sys(hv::makeOptimusConfig("SHA", 1));
    auto inj = exp::installFaults(
        sys, "hang@0:at=200us;watchdog:deadline=100us");
    hv::AccelHandle &h = sys.attach(0, 1ULL << 30);
    auto wl = shaJob(h, 1ULL << 20);
    h.setupRing(8);
    sim::Tick landed = 0;
    h.vaccel().setCompletionHandler(
        [&](accel::Status) { landed = sys.now(); });
    const std::uint64_t seq = h.ringSubmit();
    const ring::CompleteEntry e = h.ringWait(seq);
    EXPECT_EQ(static_cast<accel::Status>(e.status),
              accel::Status::kError);
    EXPECT_GT(landed, 0u);
    EXPECT_EQ(sys.now(), landed);
}

TEST(GuestCallReturnTest, FleetNodeCallsReturnEveryNodeAtTheirTick)
{
    // The nodes of a cluster share one queue, so a guest call on node
    // 1 returns with every node's clock at the event that completes
    // it.
    fleet::ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.node = hv::makeOptimusConfig("SHA", 1);
    fleet::Cluster cl(cfg);
    hv::System &node = cl.node(1);
    hv::AccelHandle &h = node.attach(0, 1ULL << 30);
    auto everyNodeAt = [&](const char *call) {
        EXPECT_EQ(cl.node(0).now(), node.now()) << call;
        EXPECT_EQ(cl.now(), node.now()) << call;
    };
    (void)h.mmioRead(accel::reg::kStateSize);
    everyNodeAt("mmioRead");
    (void)h.dmaAlloc(4ULL << 20);
    everyNodeAt("dmaAlloc");
    auto wl = hv::workload::Workload::create("SHA", h, 4096, 5);
    wl->program();
    everyNodeAt("program");
    sim::Tick doorbell = 0;
    h.vaccel().setCompletionHandler(
        [&](accel::Status) { doorbell = node.now(); });
    h.start();
    everyNodeAt("start");
    EXPECT_EQ(h.wait(), accel::Status::kDone);
    EXPECT_EQ(node.now(), doorbell);
    everyNodeAt("wait");
    EXPECT_TRUE(wl->verify());
}

TEST(GuestApiDeathTest, PumpingFromAnEventIsFatal)
{
    // A synchronous guest-API call pumps the queue; from inside an
    // event it would run the queue under its own running event.
    hv::System sys(hv::makeOptimusConfig("MB", 1));
    hv::AccelHandle &h = sys.attach(0, 1ULL << 30);
    sys.eq.scheduleIn(sim::kTickUs, [&]() { (void)h.result(); });
    EXPECT_DEATH(sys.runAll(), "called from inside an event");
}

TEST(GuestApiDeathTest, PumpingFromABarrierCallbackIsFatal)
{
    // A fleet's barrier work runs between its windows, while
    // Cluster::run holds the queue; a guest call from a barrier probe
    // would run the queue under it.
    fleet::ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.node = hv::makeOptimusConfig("MB", 1);
    fleet::Cluster cl(cfg);
    hv::AccelHandle &h = cl.node(1).attach(0, 1ULL << 30);
    cl.setBarrierProbe([&]() { (void)h.result(); });
    EXPECT_DEATH(cl.run(sim::kTickUs),
                 "fleet::Cluster::run holds the queue");
}

} // namespace

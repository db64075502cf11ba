/**
 * @file
 * Interconnect tests: link timing, the automatic channel selector's
 * throughput-oriented behaviour, and the shell's DMA datapath
 * (translation, functional data movement, faults).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "ccip/channel_selector.hh"
#include "ccip/link.hh"
#include "ccip/shell.hh"
#include "iommu/iommu.hh"
#include "mem/host_memory.hh"
#include "mem/memory_controller.hh"
#include "sim/event_queue.hh"
#include "sim/platform_params.hh"
#include "sim/telemetry.hh"
#include "sim/trace_bus.hh"
#include "sim/trace_sinks.hh"

using namespace optimus;
using namespace optimus::ccip;

namespace {

TEST(LinkTest, LatencyPlusSerialization)
{
    sim::EventQueue eq;
    Link link(eq, "l", 100 * sim::kTickNs, 8.0, 8.0); // 8 GB/s
    sim::Tick done = 0;
    link.transfer(LinkDir::kToFpga, 64, [&]() { done = eq.now(); });
    eq.runAll();
    // 64 B at 8 GB/s = 8 ns serialization + 100 ns latency.
    EXPECT_EQ(done, 8 * sim::kTickNs + 100 * sim::kTickNs);
}

TEST(LinkTest, DirectionsAreIndependent)
{
    sim::EventQueue eq;
    Link link(eq, "l", 0, 6.4, 6.4);
    sim::Tick up_done = 0;
    sim::Tick down_done = 0;
    link.transfer(LinkDir::kToHost, 640, [&]() { up_done = eq.now(); });
    link.transfer(LinkDir::kToFpga, 640,
                  [&]() { down_done = eq.now(); });
    eq.runAll();
    // Full duplex: both complete at their own serialization time.
    EXPECT_EQ(up_done, down_done);
}

TEST(LinkTest, SameDirectionSerializes)
{
    sim::EventQueue eq;
    Link link(eq, "l", 0, 6.4, 6.4);
    std::vector<sim::Tick> done;
    for (int i = 0; i < 3; ++i) {
        link.transfer(LinkDir::kToFpga, 640,
                      [&]() { done.push_back(eq.now()); });
    }
    eq.runAll();
    ASSERT_EQ(done.size(), 3u);
    EXPECT_EQ(done[1], 2 * done[0]);
    EXPECT_EQ(done[2], 3 * done[0]);
}

TEST(LinkTest, PendingAccounting)
{
    sim::EventQueue eq;
    Link link(eq, "l", 0, 8.0, 8.0);
    link.notePending(LinkDir::kToFpga, 128);
    EXPECT_EQ(link.pendingBytes(LinkDir::kToFpga), 128u);
    link.clearPending(LinkDir::kToFpga, 64);
    EXPECT_EQ(link.pendingBytes(LinkDir::kToFpga), 64u);
    link.clearPending(LinkDir::kToFpga, 1000); // clamps at zero
    EXPECT_EQ(link.pendingBytes(LinkDir::kToFpga), 0u);
}

TEST(ChannelSelectorTest, ExplicitChannelsMapDirectly)
{
    sim::EventQueue eq;
    Link upi(eq, "upi", 0, 7.5, 5.4);
    Link p0(eq, "p0", 0, 3.35, 2.4);
    Link p1(eq, "p1", 0, 3.35, 2.4);
    ChannelSelector sel(upi, p0, p1);

    DmaTxn t;
    t.vc = VChannel::kUpi;
    EXPECT_EQ(&sel.select(t), &upi);
    t.vc = VChannel::kPcie0;
    EXPECT_EQ(&sel.select(t), &p0);
    t.vc = VChannel::kPcie1;
    EXPECT_EQ(&sel.select(t), &p1);
}

TEST(ChannelSelectorTest, AutoSharesLoadProportionallyToBandwidth)
{
    sim::EventQueue eq;
    Link upi(eq, "upi", 0, 7.5, 5.4);
    Link p0(eq, "p0", 0, 3.35, 2.4);
    Link p1(eq, "p1", 0, 3.35, 2.4);
    ChannelSelector sel(upi, p0, p1);

    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 1000; ++i) {
        DmaTxn t;
        t.vc = VChannel::kAuto;
        t.bytes = 64;
        Link &l = sel.select(t);
        // Occupy the link like the shell would.
        l.transfer(LinkDir::kToFpga, 64, []() {});
        if (&l == &upi)
            ++counts[0];
        else if (&l == &p0)
            ++counts[1];
        else
            ++counts[2];
    }
    // UPI carries roughly 7.5 / 14.2 of the packets.
    EXPECT_NEAR(counts[0], 1000.0 * 7.5 / 14.2, 60.0);
    EXPECT_NEAR(counts[1], counts[2], 60.0);
}

class ShellFixture : public ::testing::Test
{
  protected:
    ShellFixture()
    {
        shell.setResponseSink([this](DmaTxnPtr txn) {
            responses.push_back(std::move(txn));
        });
        iommu.pageTable().map(mem::Iova(0), mem::Hpa(mem::kPage2M));
    }

    DmaTxnPtr
    makeTxn(bool write, std::uint64_t iova)
    {
        auto t = std::make_shared<DmaTxn>();
        t->isWrite = write;
        t->iova = mem::Iova(iova);
        t->bytes = 64;
        return t;
    }

    /** Run to quiescence: both package legs are events on the one
     *  queue, so no scheduler is needed. */
    void runAll() { eq.runAll(); }

    sim::EventQueue eq;
    sim::PlatformParams params;
    mem::HostMemory memory{4ULL << 30};
    mem::MemoryController memctl{eq, params};
    iommu::Iommu iommu{eq, params};
    Shell shell{eq, params, memory, memctl, iommu};
    std::vector<DmaTxnPtr> responses;
};

TEST_F(ShellFixture, WriteThenReadRoundTrip)
{
    auto w = makeTxn(true, 0x40);
    for (int i = 0; i < 64; ++i)
        w->data[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(i);
    shell.fromAfu(w);
    runAll();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_FALSE(responses[0]->error);

    auto r = makeTxn(false, 0x40);
    shell.fromAfu(r);
    runAll();
    ASSERT_EQ(responses.size(), 2u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(responses[1]->data[static_cast<std::size_t>(i)], i);
    // Functional landing spot: HPA = 2M + 0x40.
    EXPECT_EQ(memory.readValue<std::uint8_t>(
                  mem::Hpa(mem::kPage2M + 0x41)),
              1);
}

TEST_F(ShellFixture, UnmappedIovaReturnsErrorResponse)
{
    auto r = makeTxn(false, 0x4000000000ULL);
    shell.fromAfu(r);
    runAll();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_TRUE(responses[0]->error);
}

TEST_F(ShellFixture, ReadLatencyIsWithinPlatformEnvelope)
{
    // Warm the IOTLB first.
    auto warm = makeTxn(false, 0x0);
    warm->vc = VChannel::kUpi;
    shell.fromAfu(warm);
    runAll();

    sim::Tick start = eq.now();
    auto r = makeTxn(false, 0x80);
    r->vc = VChannel::kUpi;
    sim::Tick done = 0;
    r->onComplete = [&](DmaTxn &) { done = eq.now() - start; };
    shell.setResponseSink([](DmaTxnPtr t) {
        if (t->onComplete)
            t->onComplete(*t);
    });
    shell.fromAfu(r);
    runAll();
    // One UPI round trip + DRAM: should land near 420 ns.
    EXPECT_GT(done, 350 * sim::kTickNs);
    EXPECT_LT(done, 500 * sim::kTickNs);
}

TEST_F(ShellFixture, MmioRoundTripPaysLinkLatencyBothWays)
{
    std::uint64_t read_value = 0;
    sim::Tick done = 0;
    shell.setMmioSink([](MmioOp op) {
        if (op.onComplete)
            op.onComplete(0x1234);
    });
    MmioOp op;
    op.isWrite = false;
    op.offset = 0x10;
    op.onComplete = [&](std::uint64_t v) {
        read_value = v;
        done = eq.now();
    };
    shell.mmioFromHost(std::move(op));
    runAll();
    EXPECT_EQ(read_value, 0x1234u);
    EXPECT_EQ(done, 2 * params.pcieLatency);
}

/** Shell wired onto a trace bus, for the sink tests. */
class TracedShellFixture : public ::testing::Test
{
  protected:
    TracedShellFixture()
    {
        shell.setResponseSink([this](DmaTxnPtr txn) {
            responses.push_back(std::move(txn));
        });
        iommu.pageTable().map(mem::Iova(0), mem::Hpa(mem::kPage2M));
    }

    DmaTxnPtr
    makeTxn(bool write, std::uint64_t iova)
    {
        auto t = std::make_shared<DmaTxn>();
        t->isWrite = write;
        t->iova = mem::Iova(iova);
        t->bytes = 64;
        return t;
    }

    void runAll() { eq.runAll(); }

    sim::EventQueue eq;
    sim::PlatformParams params;
    sim::Telemetry telemetry{"sys"};
    sim::TraceBus bus{eq};
    mem::HostMemory memory{4ULL << 30};
    mem::MemoryController memctl{eq, params};
    iommu::Iommu iommu{eq, params};
    Shell shell{eq,     params, memory,
                memctl, iommu,  {&telemetry.node("shell"), &bus}};
    std::vector<DmaTxnPtr> responses;
};

TEST_F(TracedShellFixture, TwoSinksBothObserveTheSameTransaction)
{
    // Regression for the old Shell::setTracer single-slot design,
    // where attaching a second tracer silently evicted the first.
    const std::uint32_t mask =
        sim::traceMask(sim::TraceKind::kDmaComplete);
    sim::ChromeTraceSink chrome(bus, mask);
    sim::CollectSink collector;
    bus.attach(&collector, mask);

    auto w = makeTxn(true, 0x80);
    shell.fromAfu(w);
    auto bad = makeTxn(false, 0x4000000000ULL); // faults
    shell.fromAfu(bad);
    runAll();

    EXPECT_EQ(chrome.size(), 2u);
    ASSERT_EQ(collector.records().size(), 2u);
    const sim::TraceRecord *write = nullptr;
    const sim::TraceRecord *fault = nullptr;
    for (const sim::TraceRecord &r : collector.records()) {
        EXPECT_EQ(r.kind, sim::TraceKind::kDmaComplete);
        if (r.addr == 0x80u)
            write = &r;
        else
            fault = &r;
    }
    ASSERT_NE(write, nullptr);
    ASSERT_NE(fault, nullptr);
    EXPECT_NE(write->flags & sim::kTraceWrite, 0);
    EXPECT_EQ(write->flags & sim::kTraceError, 0);
    EXPECT_NE(fault->flags & sim::kTraceError, 0);

    // The Chrome export carries the same span attributes.
    std::ostringstream os;
    chrome.write(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"addr\": \"0x80\""), std::string::npos);
    EXPECT_NE(json.find("\"rw\": \"W\""), std::string::npos);
    EXPECT_NE(json.find("\"error\": 1"), std::string::npos);

    bus.detach(&collector);
}

} // namespace

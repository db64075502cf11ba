/**
 * @file
 * Accelerator-framework tests: the DMA port's windowing, pacing, and
 * reset semantics; the common register file protocol; doorbells; and
 * in-order delivery through the streaming engine's reorder buffer.
 */

#include <gtest/gtest.h>

#include <vector>

#include "accel/accelerator.hh"
#include "accel/dma_port.hh"
#include "accel/linkedlist_accel.hh"
#include "accel/membench_accel.hh"
#include "accel/regs.hh"
#include "fpga/accel_port.hh"
#include "sim/event_queue.hh"

using namespace optimus;
using namespace optimus::accel;

namespace {

/** A fabric stub that records requests and answers on demand. */
class StubFabric : public fpga::FabricPort
{
  public:
    explicit StubFabric(std::uint32_t interval = 1)
        : _interval(interval)
    {
    }

    void
    dmaRequest(ccip::DmaTxnPtr txn) override
    {
        pending.push_back(std::move(txn));
    }
    std::uint32_t injectIntervalCycles() const override
    {
        return _interval;
    }

    void
    respond(std::size_t i, bool error = false)
    {
        ccip::DmaTxnPtr t = pending[i];
        pending.erase(pending.begin() +
                      static_cast<std::ptrdiff_t>(i));
        t->error = error;
        if (t->onComplete)
            t->onComplete(*t);
    }

    std::vector<ccip::DmaTxnPtr> pending;

  private:
    std::uint32_t _interval;
};

TEST(DmaPortTest, WindowLimitsOutstanding)
{
    sim::EventQueue eq;
    StubFabric fabric;
    DmaPort port(eq, 400, "p");
    port.attach(&fabric);
    port.setMaxOutstanding(4);

    for (int i = 0; i < 10; ++i)
        port.read(mem::Gva(64ULL * i), 64, [](ccip::DmaTxn &) {});
    eq.runAll();
    EXPECT_EQ(fabric.pending.size(), 4u);
    EXPECT_EQ(port.outstanding(), 4u);
    EXPECT_EQ(port.queued(), 6u);
    EXPECT_EQ(port.inFlight(), 10u);

    fabric.respond(0);
    eq.runAll();
    EXPECT_EQ(fabric.pending.size(), 4u); // refilled
    EXPECT_EQ(port.queued(), 5u);
}

TEST(DmaPortTest, InjectionPacingRespectsFabricInterval)
{
    sim::EventQueue eq;
    StubFabric fabric(2); // one request per two cycles
    DmaPort port(eq, 400, "p");
    port.attach(&fabric);
    port.setMaxOutstanding(64);

    for (int i = 0; i < 8; ++i)
        port.read(mem::Gva(64ULL * i), 64, [](ccip::DmaTxn &) {});
    eq.runAll();
    ASSERT_EQ(fabric.pending.size(), 8u);
    // Issue timestamps are at least 2 cycles (5 ns) apart.
    for (std::size_t i = 1; i < 8; ++i) {
        EXPECT_GE(fabric.pending[i]->issuedAt -
                      fabric.pending[i - 1]->issuedAt,
                  2 * 2500u);
    }
}

TEST(DmaPortTest, DrainCallbackFiresOnceIdle)
{
    sim::EventQueue eq;
    StubFabric fabric;
    DmaPort port(eq, 400, "p");
    port.attach(&fabric);

    bool drained = false;
    port.read(mem::Gva(0), 64, [](ccip::DmaTxn &) {});
    eq.runAll();
    port.notifyWhenDrained([&]() { drained = true; });
    EXPECT_FALSE(drained);
    fabric.respond(0);
    eq.runAll();
    EXPECT_TRUE(drained);

    // When already idle the callback fires immediately.
    bool again = false;
    port.notifyWhenDrained([&]() { again = true; });
    EXPECT_TRUE(again);
}

TEST(DmaPortTest, ResetDropsStaleResponses)
{
    sim::EventQueue eq;
    StubFabric fabric;
    DmaPort port(eq, 400, "p");
    port.attach(&fabric);

    int delivered = 0;
    port.read(mem::Gva(0), 64,
              [&](ccip::DmaTxn &) { ++delivered; });
    eq.runAll();
    port.reset();
    EXPECT_EQ(port.outstanding(), 0u);
    fabric.respond(0); // stale epoch: dropped
    eq.runAll();
    EXPECT_EQ(delivered, 0);
    EXPECT_TRUE(port.idle());
}

TEST(DmaPortTest, ResetCancelsTheArmedIssueWakeup)
{
    // A request enqueued after a reset, while the pre-reset issue
    // wakeup is still queued, is issued by a fresh wakeup: the reset
    // cancelled the old one instead of leaving it armed to be dropped.
    sim::EventQueue eq;
    StubFabric fabric(2); // one request per two cycles
    DmaPort port(eq, 400, "p");
    port.attach(&fabric);

    for (int i = 0; i < 2; ++i)
        port.read(mem::Gva(64ULL * i), 64, [](ccip::DmaTxn &) {});
    EXPECT_EQ(port.queued(), 1u); // the second waits out the interval
    port.reset();
    for (int i = 2; i < 4; ++i)
        port.read(mem::Gva(64ULL * i), 64, [](ccip::DmaTxn &) {});
    eq.runAll();
    EXPECT_EQ(port.queued(), 0u);
    EXPECT_EQ(port.outstanding(), 2u);
    ASSERT_EQ(fabric.pending.size(), 3u);
    EXPECT_EQ(fabric.pending[2]->gva.value(), 64u * 3);
}

TEST(DmaPortTest, ErrorsAreCountedAndSurfaced)
{
    sim::EventQueue eq;
    StubFabric fabric;
    DmaPort port(eq, 400, "p");
    port.attach(&fabric);

    bool saw_error = false;
    port.read(mem::Gva(0), 64, [&](ccip::DmaTxn &t) {
        saw_error = t.error;
    });
    eq.runAll();
    fabric.respond(0, /*error=*/true);
    eq.runAll();
    EXPECT_TRUE(saw_error);
    EXPECT_EQ(port.errors(), 1u);
}

class AccelRegFixture : public ::testing::Test
{
  protected:
    sim::EventQueue eq;
    sim::PlatformParams params;
    StubFabric fabric;
    MembenchAccel accel{eq, params, "mb"};

    AccelRegFixture() { accel.attachFabric(&fabric); }
};

TEST_F(AccelRegFixture, RegisterFileReadback)
{
    accel.mmioWrite(reg::appReg(0), 0x1234);
    accel.mmioWrite(reg::appReg(31), 0x5678);
    EXPECT_EQ(accel.mmioRead(reg::appReg(0)), 0x1234u);
    EXPECT_EQ(accel.mmioRead(reg::appReg(31)), 0x5678u);
    EXPECT_EQ(accel.mmioRead(reg::kStatus),
              static_cast<std::uint64_t>(Status::kIdle));
    // Unknown offsets read as zero, writes are ignored.
    EXPECT_EQ(accel.mmioRead(0x9990), 0u);
    accel.mmioWrite(reg::kStatus, 99); // read-only
    EXPECT_EQ(accel.mmioRead(reg::kStatus),
              static_cast<std::uint64_t>(Status::kIdle));
}

TEST_F(AccelRegFixture, StateSizeCoversHeaderAndArchState)
{
    EXPECT_GE(accel.mmioRead(reg::kStateSize), 24u + 48u);
    accel.setSyntheticStateBytes(1 << 20);
    EXPECT_EQ(accel.mmioRead(reg::kStateSize), 1u << 20);
}

TEST_F(AccelRegFixture, StartRunsAndDoorbellRings)
{
    int doorbells = 0;
    accel.setDoorbell([&](Accelerator &) { ++doorbells; });
    accel.mmioWrite(reg::appReg(MembenchAccel::kRegBase), 0x10000);
    accel.mmioWrite(reg::appReg(MembenchAccel::kRegWset), 4096);
    accel.mmioWrite(reg::appReg(MembenchAccel::kRegTarget), 3);
    accel.mmioWrite(reg::kCtrl, ctrl::kStart);
    EXPECT_EQ(accel.status(), Status::kRunning);
    eq.runAll();
    // Answer the three reads.
    while (!fabric.pending.empty()) {
        fabric.respond(0);
        eq.runAll();
    }
    EXPECT_EQ(accel.status(), Status::kDone);
    EXPECT_EQ(accel.progress(), 3u);
    EXPECT_EQ(doorbells, 1);
}

TEST_F(AccelRegFixture, HardResetClearsEverything)
{
    accel.mmioWrite(reg::appReg(0), 77);
    accel.mmioWrite(reg::kStateBuf, 0xbeef);
    accel.hardReset();
    EXPECT_EQ(accel.mmioRead(reg::appReg(0)), 0u);
    EXPECT_EQ(accel.mmioRead(reg::kStateBuf), 0u);
    EXPECT_EQ(accel.status(), Status::kIdle);
}

TEST_F(AccelRegFixture, SoftResetKeepsAppRegisters)
{
    accel.mmioWrite(reg::appReg(0), 77);
    accel.mmioWrite(reg::kCtrl, ctrl::kSoftReset);
    EXPECT_EQ(accel.mmioRead(reg::appReg(0)), 77u);
    EXPECT_EQ(accel.status(), Status::kIdle);
}

} // namespace

/**
 * @file
 * Accelerator-framework tests: the DMA port's windowing, pacing, and
 * reset semantics; the common register file protocol; doorbells;
 * what a soft reset drops from an accelerator's own schedule; and
 * in-order delivery through the streaming engine's reorder buffer.
 */

#include <gtest/gtest.h>

#include <vector>

#include "accel/accelerator.hh"
#include "accel/crypto_accels.hh"
#include "accel/dma_port.hh"
#include "accel/linkedlist_accel.hh"
#include "accel/membench_accel.hh"
#include "accel/regs.hh"
#include "accel/signal_accels.hh"
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
        ccip::DmaTxnPtr t = std::move(pending[i]);
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

// -----------------------------------------------------------------
// What a soft reset drops from the accelerator's own schedule: the
// compute steps scheduleGuarded() queued and the state-blob lines not
// yet issued. A job started right after the reset runs as a fresh
// job started at that moment would.
// -----------------------------------------------------------------

/** One accelerator on a stub fabric answered at the tick each request
 *  arrives; reads return a pattern of their address. */
template <typename Accel>
struct ServedRig
{
    sim::EventQueue eq;
    sim::PlatformParams params;
    StubFabric fabric;
    Accel accel{eq, params, "acc"};
    sim::Tick doneAt = 0;
    int doorbells = 0;
    std::size_t writes = 0;

    ServedRig()
    {
        accel.attachFabric(&fabric);
        accel.setDoorbell([this](Accelerator &) {
            doneAt = eq.now();
            ++doorbells;
        });
    }

    void command(std::uint64_t bits) { accel.mmioWrite(reg::kCtrl, bits); }

    /** Run every event due by @p limit, then advance time to it. */
    void
    serve(sim::Tick limit = sim::kTickForever)
    {
        for (;;) {
            if (!fabric.pending.empty()) {
                ccip::DmaTxn &t = *fabric.pending.front();
                if (t.isWrite)
                    ++writes;
                else
                    for (std::uint32_t i = 0; i < t.bytes; ++i)
                        t.data[i] = static_cast<std::uint8_t>(
                            t.gva.value() * 7 + i);
                fabric.respond(0);
            } else if (!eq.empty() && eq.nextEventTick() <= limit) {
                eq.runOne();
            } else {
                break;
            }
        }
        if (limit != sim::kTickForever)
            eq.runUntil(limit);
    }
};

/** Reset @p rig's job at @p at and START again at once; the new job
 *  must match @p fresh's, started at @p at on an idle device. */
template <typename Accel>
void
expectRestartMatchesFreshJob(ServedRig<Accel> &rig,
                             ServedRig<Accel> &fresh, sim::Tick at)
{
    rig.command(ctrl::kStart);
    rig.serve(at);
    ASSERT_EQ(rig.doorbells, 0) << "the first job ended before " << at;
    ASSERT_EQ(rig.accel.status(), Status::kRunning);
    rig.command(ctrl::kSoftReset);
    rig.command(ctrl::kStart);
    rig.serve();

    fresh.eq.runUntil(at);
    fresh.command(ctrl::kStart);
    fresh.serve();

    ASSERT_EQ(fresh.doorbells, 1);
    EXPECT_EQ(rig.doorbells, 1);
    EXPECT_EQ(rig.accel.status(), Status::kDone);
    EXPECT_EQ(rig.doneAt, fresh.doneAt);
    EXPECT_EQ(rig.accel.result(), fresh.accel.result());
    EXPECT_EQ(rig.accel.progress(), fresh.accel.progress());
}

void
programBtc(BtcAccel &a)
{
    a.mmioWrite(reg::appReg(BtcAccel::kRegSrc), 0x40000);
    a.mmioWrite(reg::appReg(BtcAccel::kRegStartNonce), 0);
    a.mmioWrite(reg::appReg(BtcAccel::kRegZeroBits), 12);
}

TEST(ResetScheduleTest, BtcRestartedMidBatchMatchesAFreshJob)
{
    ServedRig<BtcAccel> rig;
    ServedRig<BtcAccel> fresh;
    programBtc(rig.accel);
    programBtc(fresh.accel);
    // Half-way through the third 256-cycle batch at 100 MHz: the
    // first job's next batch is still queued.
    expectRestartMatchesFreshJob(rig, fresh, 6'500 * sim::kTickNs);
    // The new job outlives that queued batch, which would otherwise
    // start a second mining chain inside it.
    EXPECT_GT(rig.accel.progress(), 2u * BtcAccel::kBatch);
}

void
programSw(SwAccel &a)
{
    a.mmioWrite(reg::appReg(SwAccel::kRegSeqA), 0x10000);
    a.mmioWrite(reg::appReg(SwAccel::kRegLenA), 200);
    a.mmioWrite(reg::appReg(SwAccel::kRegSeqB), 0x20000);
    a.mmioWrite(reg::appReg(SwAccel::kRegLenB), 300);
}

TEST(ResetScheduleTest, SwRestartedMidWavefrontMatchesAFreshJob)
{
    ServedRig<SwAccel> rig;
    ServedRig<SwAccel> fresh;
    programSw(rig.accel);
    programSw(fresh.accel);
    // The 500-cycle wavefront at 100 MHz runs from ~0.1 us to
    // ~5.1 us; reset half-way.
    expectRestartMatchesFreshJob(rig, fresh, 2'500 * sim::kTickNs);
    EXPECT_EQ(rig.accel.progress(), 500u);
}

TEST(ResetScheduleTest, SoftResetDuringStateSaveIssuesNoFurtherLine)
{
    ServedRig<BtcAccel> rig;
    programBtc(rig.accel);
    rig.accel.mmioWrite(reg::kStateBuf, 0x80000);
    rig.accel.setSyntheticStateBytes(16 << 10); // 256 blob lines
    rig.command(ctrl::kStart);
    rig.serve(3'000 * sim::kTickNs);
    ASSERT_EQ(rig.accel.status(), Status::kRunning);

    // The port is idle between batches, so the save starts at once
    // and paces one line per ~19 ns: reset it part-way.
    rig.command(ctrl::kPreempt);
    rig.serve(4'000 * sim::kTickNs);
    ASSERT_EQ(rig.accel.status(), Status::kSaving);
    const std::size_t issued = rig.writes;
    ASSERT_GT(issued, 0u);
    ASSERT_LT(issued, 256u);

    rig.command(ctrl::kSoftReset);
    rig.serve();
    EXPECT_EQ(rig.writes, issued);
    EXPECT_EQ(rig.accel.status(), Status::kIdle);
    EXPECT_EQ(rig.doorbells, 0);
}

} // namespace

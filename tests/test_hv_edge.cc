/**
 * @file
 * Hypervisor edge cases and failure injection: concurrent
 * virtual-accelerator creation racing on the VCU's staged registers,
 * DMA faults surfacing as job errors, guest soft reset semantics,
 * completion-handler delivery, and migration error paths.
 */

#include <gtest/gtest.h>

#include <set>

#include "accel/linkedlist_accel.hh"
#include "accel/sssp_accel.hh"
#include "accel/streaming_accelerator.hh"
#include "hv/system.hh"
#include "hv/workloads.hh"
#include "step_until.hh"

using namespace optimus;
using namespace optimus::hv;

namespace {

TEST(VcuSerializationTest, ConcurrentSchedulingCommitsBothEntries)
{
    // Two tenants created back-to-back: their offset-table
    // programming sequences share the VCU's staged registers and
    // must not interleave (regression test for the serialized
    // management queue).
    System sys(makeOptimusConfig("LL", 8));
    std::vector<AccelHandle *> handles;
    for (std::uint32_t i = 0; i < 8; ++i)
        handles.push_back(&sys.attach(i, 1ULL << 30));
    ASSERT_TRUE(test::stepUntil(sys, [&]() {
        for (std::uint32_t i = 0; i < 8; ++i) {
            if (!sys.platform.monitor()
                     ->auditor(i)
                     .offsetEntry()
                     .valid) {
                return false;
            }
        }
        return true;
    }));

    std::set<std::uint64_t> slice_bases;
    for (std::uint32_t i = 0; i < 8; ++i) {
        const auto &e =
            sys.platform.monitor()->auditor(i).offsetEntry();
        EXPECT_EQ(e.window, sys.platform.params().sliceBytes) << i;
        // gvaBase + offset = slice base; all eight distinct.
        slice_bases.insert(e.gvaBase + e.offset);
    }
    EXPECT_EQ(slice_bases.size(), 8u);
}

TEST(FaultInjectionTest, UnregisteredWindowAddressErrorsTheJob)
{
    // Point AES at a reserved-but-never-registered part of its own
    // window: the auditor admits it (in-window), the IOMMU faults,
    // and the job must surface ERROR rather than hang.
    System sys(makeOptimusConfig("AES", 1));
    AccelHandle &h = sys.attach(0, 1ULL << 30);
    mem::Gva hole = h.vaccel().windowBase() + (1ULL << 30);
    h.writeAppReg(accel::stream_reg::kSrc, hole.value());
    h.writeAppReg(accel::stream_reg::kDst, hole.value());
    h.writeAppReg(accel::stream_reg::kLen, 4096);
    h.start();
    EXPECT_EQ(h.wait(), accel::Status::kError);
    EXPECT_GT(sys.platform.iommu().faults(), 0u);
}

TEST(FaultInjectionTest, JobRestartsCleanlyAfterError)
{
    System sys(makeOptimusConfig("LL", 1));
    AccelHandle &h = sys.attach(0, 1ULL << 30);

    // First job: walk into an unregistered hole -> ERROR.
    mem::Gva hole = h.vaccel().windowBase() + (2ULL << 30);
    h.writeAppReg(accel::LinkedlistAccel::kRegHead, hole.value());
    h.writeAppReg(accel::LinkedlistAccel::kRegCount, 0);
    h.start();
    EXPECT_EQ(h.wait(), accel::Status::kError);

    // Second job on the same virtual accelerator: valid list, DONE.
    auto layout = workload::buildLinkedList(h, 200, 9);
    h.writeAppReg(accel::LinkedlistAccel::kRegHead,
                  layout.head.value());
    h.reset();
    h.start();
    EXPECT_EQ(h.wait(), accel::Status::kDone);
    EXPECT_EQ(h.result(), layout.checksum);
}

TEST(CompletionHandlerTest, FiresOncePerCompletionWithStatus)
{
    System sys(makeOptimusConfig("LL", 1));
    AccelHandle &h = sys.attach(0, 1ULL << 30);
    auto layout = workload::buildLinkedList(h, 100, 10);
    h.writeAppReg(accel::LinkedlistAccel::kRegHead,
                  layout.head.value());

    int calls = 0;
    accel::Status seen = accel::Status::kIdle;
    h.vaccel().setCompletionHandler([&](accel::Status st) {
        ++calls;
        seen = st;
    });
    h.start();
    EXPECT_EQ(h.wait(), accel::Status::kDone);
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(seen, accel::Status::kDone);
}

TEST(SoftResetTest, ClearsVisibleStateButKeepsRegisters)
{
    System sys(makeOptimusConfig("LL", 1));
    AccelHandle &h = sys.attach(0, 1ULL << 30);
    auto layout = workload::buildLinkedList(h, 5000, 11);
    h.writeAppReg(accel::LinkedlistAccel::kRegHead,
                  layout.head.value());
    h.start();
    sys.run(sys.eq.now() + 100 * sim::kTickUs);
    ASSERT_EQ(sys.hv.peekStatus(h.vaccel()),
              accel::Status::kRunning);

    h.reset();
    EXPECT_EQ(sys.hv.peekStatus(h.vaccel()), accel::Status::kIdle);
    // Registers survive a soft reset; the job can be restarted.
    EXPECT_EQ(h.mmioRead(accel::reg::appReg(
                  accel::LinkedlistAccel::kRegHead)),
              layout.head.value());
    h.start();
    EXPECT_EQ(h.wait(), accel::Status::kDone);
    EXPECT_EQ(h.result(), layout.checksum);
}

TEST(MigrationEdgeTest, MigrateToSameSlotIsRejected)
{
    System sys(makeOptimusConfig("LL", 2));
    AccelHandle &h = sys.attach(0, 1ULL << 30);
    bool result = true;
    sys.hv.migrate(h.vaccel(), 0, [&](bool ok) { result = ok; });
    EXPECT_FALSE(result);
}

TEST(MigrationEdgeTest, PassthroughCannotMigrate)
{
    System sys(makePassthroughConfig("LL"));
    AccelHandle &h = sys.attach(0, 1ULL << 30);
    bool result = true;
    sys.hv.migrate(h.vaccel(), 0, [&](bool ok) { result = ok; });
    EXPECT_FALSE(result);
}

TEST(StateSizeTest, SsspStateSizeTracksGraphSize)
{
    // STATE_SIZE is register-dependent for SSSP (frontier capacity
    // scales with the vertex count) — the guest reads it after
    // programming, as the driver flow prescribes.
    System sys(makeOptimusConfig("SSSP", 1));
    AccelHandle &h = sys.attach(0, 1ULL << 30);
    h.writeAppReg(accel::SsspAccel::kRegNvert, 1000);
    std::uint64_t small = h.mmioRead(accel::reg::kStateSize);
    h.writeAppReg(accel::SsspAccel::kRegNvert, 100000);
    std::uint64_t large = h.mmioRead(accel::reg::kStateSize);
    EXPECT_GT(large, small);
    EXPECT_GE(large, 8ULL * 100000);
}

} // namespace

/**
 * @file
 * Virtual-accelerator migration tests (the Section 7.1 extension):
 * a running job moves to another physical slot mid-execution and
 * completes correctly; a source that cannot cede is force-reset and
 * the migration reports failure; migration is refused across
 * accelerator types; descheduled tenants migrate with their cached
 * state; a finished job moves without completing a second time.
 */

#include <gtest/gtest.h>

#include "accel/linkedlist_accel.hh"
#include "hv/system.hh"
#include "hv/workloads.hh"

using namespace optimus;
using namespace optimus::hv;

namespace {

TEST(MigrationTest, RunningJobMigratesAndCompletesCorrectly)
{
    System sys(makeOptimusConfig("LL", 2));
    AccelHandle &h = sys.attach(0, 1ULL << 30);

    auto layout = workload::buildLinkedList(h, 60000, 33);
    h.writeAppReg(accel::LinkedlistAccel::kRegHead,
                  layout.head.value());
    h.writeAppReg(accel::LinkedlistAccel::kRegCount, 0);
    h.setupStateBuffer();
    h.start();

    // Let it walk a while, then migrate to slot 1 mid-flight.
    sys.run(sys.eq.now() + 5 * sim::kTickMs);
    std::uint64_t progress_before =
        sys.hv.peekProgress(h.vaccel());
    ASSERT_GT(progress_before, 0u);
    ASSERT_LT(progress_before, 60000u);

    bool migrated = false;
    sys.hv.migrate(h.vaccel(), 1, [&](bool ok) {
        migrated = ok;
        sys.eq.requestStop();
    });
    ASSERT_TRUE(sys.eq.pumpUntil([&]() { return migrated; }));
    EXPECT_EQ(h.vaccel().slot(), 1u);
    EXPECT_TRUE(sys.hv.isScheduled(h.vaccel()));
    EXPECT_EQ(sys.hv.migrations(), 1u);

    // The walk resumes on the new physical accelerator and the
    // final checksum is exactly what an unmigrated walk produces.
    EXPECT_EQ(h.wait(), accel::Status::kDone);
    EXPECT_EQ(h.result(), layout.checksum);
    EXPECT_EQ(h.progress(), layout.nodes);
    // Work really happened on the destination accelerator.
    EXPECT_GT(sys.platform.accel(1).dma().readsIssued(), 0u);
}

TEST(MigrationTest, SourceThatCannotCedeReportsFailureOnce)
{
    System sys(makeOptimusConfig("LL", 2));
    AccelHandle &h = sys.attach(0, 1ULL << 30);

    auto layout = workload::buildLinkedList(h, 60000, 33);
    h.writeAppReg(accel::LinkedlistAccel::kRegHead,
                  layout.head.value());
    h.writeAppReg(accel::LinkedlistAccel::kRegCount, 0);
    h.setupStateBuffer();
    h.start();
    sys.run(sys.eq.now() + sim::kTickMs);

    // A wedged device ignores PREEMPT: the save times out, the VCU
    // force-resets the source, and the migration is abandoned.
    sys.platform.accel(0).wedge();
    int calls = 0;
    bool result = true;
    sys.hv.migrate(h.vaccel(), 1, [&](bool ok) {
        ++calls;
        result = ok;
    });
    sys.run(sys.eq.now() + 20 * sim::kTickMs);

    EXPECT_EQ(calls, 1);
    EXPECT_FALSE(result);
    EXPECT_EQ(sys.hv.forcedResets(), 1u);
    EXPECT_EQ(sys.hv.migrations(), 0u);
    EXPECT_EQ(h.vaccel().slot(), 0u);
    EXPECT_EQ(sys.hv.peekStatus(h.vaccel()), accel::Status::kError);
    EXPECT_NE(h.vaccel().errorStatus() & accel::errst::kForcedReset,
              0u);
}

TEST(MigrationTest, RefusedAcrossAcceleratorTypes)
{
    PlatformConfig cfg;
    cfg.apps = {"LL", "AES"};
    System sys(cfg);
    AccelHandle &h = sys.attach(0, 1ULL << 30);
    h.setupStateBuffer();

    bool result = true;
    sys.hv.migrate(h.vaccel(), 1, [&](bool ok) { result = ok; });
    EXPECT_FALSE(result);
    EXPECT_EQ(h.vaccel().slot(), 0u);
    EXPECT_EQ(sys.hv.migrations(), 0u);
}

TEST(MigrationTest, DescheduledTenantMigratesWithPendingStart)
{
    System sys(makeOptimusConfig("LL", 2, [] {
                   auto p = sim::PlatformParams::harpDefaults();
                   p.timeSlice = 5 * sim::kTickMs;
                   return p;
               }()));
    AccelHandle &holder = sys.attach(0, 1ULL << 30);
    AccelHandle &second = sys.attach(0, 1ULL << 30); // descheduled
    holder.setupStateBuffer();

    auto layout = workload::buildLinkedList(second, 500, 44);
    second.writeAppReg(accel::LinkedlistAccel::kRegHead,
                       layout.head.value());
    second.writeAppReg(accel::LinkedlistAccel::kRegCount, 0);
    second.setupStateBuffer();
    second.start(); // postponed: tenant 1 holds slot 0
    ASSERT_FALSE(sys.hv.isScheduled(second.vaccel()));

    // Move the waiting tenant to the idle slot 1: it should get the
    // hardware immediately and run to completion there.
    bool migrated = false;
    sys.hv.migrate(second.vaccel(), 1, [&](bool ok) {
        migrated = ok;
        sys.eq.requestStop();
    });
    ASSERT_TRUE(sys.eq.pumpUntil([&]() { return migrated; }));
    EXPECT_EQ(second.vaccel().slot(), 1u);
    EXPECT_EQ(second.wait(), accel::Status::kDone);
    EXPECT_EQ(second.result(), layout.checksum);
}

TEST(MigrationTest, FinishedHolderMigratesWithoutSecondCompletion)
{
    // A finished job moves with its cached result but does not take
    // the destination slot: nothing is left to resume there, so no
    // second DONE doorbell may reach the completion handler.
    System sys(makeOptimusConfig("LL", 2));
    AccelHandle &h = sys.attach(0, 1ULL << 30);
    int completions = 0;
    h.vaccel().setCompletionHandler(
        [&](accel::Status) { ++completions; });

    auto layout = workload::buildLinkedList(h, 500, 55);
    h.writeAppReg(accel::LinkedlistAccel::kRegHead,
                  layout.head.value());
    h.writeAppReg(accel::LinkedlistAccel::kRegCount, 0);
    h.setupStateBuffer();
    h.start();
    ASSERT_EQ(h.wait(), accel::Status::kDone);
    ASSERT_EQ(completions, 1);

    bool migrated = false;
    sys.hv.migrate(h.vaccel(), 1, [&](bool ok) {
        migrated = ok;
        sys.eq.requestStop();
    });
    ASSERT_TRUE(sys.eq.pumpUntil([&]() { return migrated; }));
    sys.run(sys.eq.now() + 5 * sim::kTickMs);

    EXPECT_EQ(h.vaccel().slot(), 1u);
    EXPECT_EQ(sys.hv.migrations(), 1u);
    EXPECT_EQ(completions, 1);
    EXPECT_EQ(sys.hv.peekStatus(h.vaccel()), accel::Status::kDone);
    EXPECT_EQ(h.result(), layout.checksum);
}

TEST(MigrationTest, LoadBalancingAcrossSlots)
{
    // Three tenants pile onto slot 0; migrating two of them away
    // leaves every slot with one tenant and all jobs complete.
    System sys(makeOptimusConfig("LL", 3, [] {
                   auto p = sim::PlatformParams::harpDefaults();
                   p.timeSlice = 2 * sim::kTickMs;
                   return p;
               }()));
    std::vector<AccelHandle *> handles;
    std::vector<workload::LinkedListLayout> layouts;
    for (int i = 0; i < 3; ++i) {
        handles.push_back(&sys.attach(0, 1ULL << 30));
        layouts.push_back(
            workload::buildLinkedList(*handles.back(), 40000,
                                      70 + i));
        handles.back()->writeAppReg(
            accel::LinkedlistAccel::kRegHead,
            layouts.back().head.value());
        handles.back()->writeAppReg(
            accel::LinkedlistAccel::kRegCount, 0);
        handles.back()->setupStateBuffer();
        handles.back()->start();
    }
    sys.run(sys.eq.now() + 3 * sim::kTickMs);

    int moved = 0;
    sys.hv.migrate(handles[1]->vaccel(), 1, [&](bool ok) {
        moved += ok ? 1 : 0;
        sys.eq.requestStop();
    });
    ASSERT_TRUE(sys.eq.pumpUntil([&]() { return moved == 1; }));
    sys.hv.migrate(handles[2]->vaccel(), 2, [&](bool ok) {
        moved += ok ? 1 : 0;
        sys.eq.requestStop();
    });
    ASSERT_TRUE(sys.eq.pumpUntil([&]() { return moved == 2; }));

    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(handles[static_cast<std::size_t>(i)]->wait(),
                  accel::Status::kDone)
            << i;
        EXPECT_EQ(handles[static_cast<std::size_t>(i)]->result(),
                  layouts[static_cast<std::size_t>(i)].checksum)
            << i;
    }
    EXPECT_EQ(sys.hv.migrations(), 2u);
}

} // namespace

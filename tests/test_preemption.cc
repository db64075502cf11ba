/**
 * @file
 * Preemption-interface tests (Section 4.2): drain-save-resume round
 * trips preserve results for the conforming microbenchmarks (MB, LL)
 * and the streaming accelerators; forced reset fires on accelerators
 * that cannot cede; completion during a drain is handled; a preempt
 * during a restore still saves; the state buffer lives in guest DMA
 * memory and really receives the context, and a tenant that corrupts
 * it stops its own resume instead of corrupting the device model.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "accel/linkedlist_accel.hh"
#include "accel/membench_accel.hh"
#include "hv/system.hh"
#include "hv/workloads.hh"
#include "step_until.hh"

using namespace optimus;
using namespace optimus::hv;

namespace {

/** Preempt/resume in the middle of any app's job: result intact. */
class PreemptRoundTripTest
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PreemptRoundTripTest, JobSurvivesContextSwitches)
{
    const std::string app = GetParam();
    // Two tenants on one physical accelerator with a short slice:
    // the first runs a verifiable job across several context
    // switches; the second idles (so switches still happen via the
    // round-robin timer, exercising save AND restore).
    sim::PlatformParams p = sim::PlatformParams::harpDefaults();
    p.timeSlice = 200 * sim::kTickUs; // many switches per job
    System sys(makeOptimusConfig(app, 1, p));

    AccelHandle &h1 = sys.attach(0, 1ULL << 30);
    AccelHandle &h2 = sys.attachShared(0);

    auto wl = workload::Workload::create(app, h1, 512 * 1024, 17);
    wl->program();
    h1.setupStateBuffer();
    h2.setupStateBuffer();

    auto wl2 = workload::Workload::create(app, h2, 512 * 1024, 18);
    wl2->program();

    h1.start();
    h2.start();
    EXPECT_EQ(h1.wait(), accel::Status::kDone) << app;
    EXPECT_EQ(h2.wait(), accel::Status::kDone) << app;
    EXPECT_TRUE(wl->verify()) << app;
    EXPECT_TRUE(wl2->verify()) << app;
    EXPECT_GE(sys.hv.contextSwitches(), 1u) << app;
    EXPECT_EQ(sys.hv.forcedResets(), 0u) << app;
}

// SW and SSSP restart on resume; BTC/MB/LL/streaming apps carry
// their state. All of them must survive multiplexing.
INSTANTIATE_TEST_SUITE_P(Apps, PreemptRoundTripTest,
                         ::testing::Values("AES", "MD5", "SHA",
                                           "FIR", "GRN", "GRS",
                                           "LL", "MB", "BTC"));

TEST(PreemptionTest, StateBufferReceivesTheContext)
{
    sim::PlatformParams p = sim::PlatformParams::harpDefaults();
    p.timeSlice = 100 * sim::kTickUs;
    System sys(makeOptimusConfig("LL", 1, p));
    AccelHandle &h1 = sys.attach(0, 1ULL << 30);
    AccelHandle &h2 = sys.attachShared(0);

    auto layout = workload::buildLinkedList(h1, 100000, 5);
    h1.writeAppReg(accel::LinkedlistAccel::kRegHead,
                   layout.head.value());
    h1.writeAppReg(accel::LinkedlistAccel::kRegCount, 0);

    // Remember where the state buffer landed.
    h1.setupStateBuffer();
    std::uint64_t buf_gva =
        h1.mmioRead(accel::reg::kStateBuf);
    ASSERT_NE(buf_gva, 0u);
    h2.setupStateBuffer();

    // Tenant 2 runs a long walk of its own so the round-robin timer
    // actually has someone to switch to.
    auto layout2 = workload::buildLinkedList(h2, 100000, 6);
    h2.writeAppReg(accel::LinkedlistAccel::kRegHead,
                   layout2.head.value());
    h2.writeAppReg(accel::LinkedlistAccel::kRegCount, 0);
    h2.start();
    h1.start();
    // Run until at least one context switch has happened.
    ASSERT_TRUE(test::stepUntil(
        sys, [&]() { return sys.hv.contextSwitches() >= 1; }));

    // The saved blob's header is in guest memory: status RUNNING.
    std::uint64_t saved_status =
        h1.process().readValue<std::uint64_t>(mem::Gva(buf_gva));
    EXPECT_EQ(saved_status,
              static_cast<std::uint64_t>(accel::Status::kRunning));
    EXPECT_EQ(h1.wait(), accel::Status::kDone);
    EXPECT_EQ(h1.result(), layout.checksum);
}

/**
 * Tenant h1 time-shares slot 0 with h2 at a 100 us slice. Once h2
 * holds the slot, h1's mid-job save has fully landed in its state
 * buffer, its own memory: @p corrupt rewrites a field there, and h1's
 * RESUME must then stop on @p message instead of letting the field
 * corrupt the device model. The death runs in a child; the parent's
 * simulation is intact.
 */
void
expectResumeDies(
    const char *app, std::uint64_t job_bytes,
    const std::function<void(guest::Process &, mem::Gva)> &corrupt,
    const char *message)
{
    SCOPED_TRACE(message);
    sim::PlatformParams p = sim::PlatformParams::harpDefaults();
    p.timeSlice = 100 * sim::kTickUs;
    System sys(makeOptimusConfig(app, 1, p));
    AccelHandle &h1 = sys.attach(0, 1ULL << 30);
    AccelHandle &h2 = sys.attachShared(0);

    auto wl1 = workload::Workload::create(app, h1, job_bytes, 17);
    wl1->program();
    h1.setupStateBuffer();
    const mem::Gva buf(h1.mmioRead(accel::reg::kStateBuf));
    auto wl2 = workload::Workload::create(app, h2, job_bytes, 18);
    wl2->program();
    h2.setupStateBuffer();

    h1.start();
    h2.start();
    ASSERT_TRUE(test::stepUntil(sys, [&]() {
        return sys.hv.isScheduled(h2.vaccel()) &&
               h1.process().readValue<std::uint64_t>(buf) ==
                   static_cast<std::uint64_t>(accel::Status::kRunning);
    }));
    corrupt(h1.process(), buf);
    EXPECT_DEATH(h1.wait(), message);
}

TEST(PreemptionTest, CorruptStateBufferFailsTheResume)
{
    // The blob: a 24-byte header (status, result, progress), for a
    // streaming app the stream position and transform length, then
    // the model's state. Each row rewrites one u64 field.
    struct Row
    {
        const char *app;
        std::uint64_t jobBytes;
        std::uint64_t offset;
        std::uint64_t value;
        const char *message;
    };
    const Row rows[] = {
        // SHA-512's buffer fill follows its eight hash words and
        // total length.
        {"SHA", 512 * 1024, 112, 200,
         "SHA-512 state buffer fill 200 out of range"},
        // MD5's follows its four words and total length; a full
        // block is already out of range.
        {"MD5", 512 * 1024, 64, 64,
         "MD5 state buffer fill 64 out of range"},
        // A transform length near 2^64 must not wrap the bounds check.
        {"SHA", 512 * 1024, 32, ~0ULL - 7, "truncated arch state"},
        // RSD: the fill follows the 256-byte codeword slot.
        {"RSD", 512 * 1024, 296, 1ULL << 20,
         "RSD state slot fill 1048576 out of range"},
        // GRS: the fill follows the 64-byte output line.
        {"GRS", 8ULL << 20, 104, 1ULL << 20,
         "GRS state output-line fill 1048576 out of range"},
        // Row filters: rows completed, then the current row's fill.
        {"GAU", 512 * 1024, 48, 1ULL << 20,
         "GAU state current-row fill 1048576 out of range"},
        // SSSP: frontier count, next count, relaxations, rounds.
        {"SSSP", 512 * 1024, 24, 1ULL << 20,
         "SSSP state frontier vertex count 1048576 out of range"},
        // GRN: the spare-sample flag follows the four RNG words.
        {"GRN", 8ULL << 20, 56, 7,
         "GRN state spare-sample flag 7 out of range"},
    };
    for (const Row &row : rows) {
        expectResumeDies(
            row.app, row.jobBytes,
            [&row](guest::Process &proc, mem::Gva buf) {
                proc.writeValue<std::uint64_t>(buf + row.offset,
                                               row.value);
            },
            row.message);
    }

    // SSSP vertex ids index the next-round bitmap: one next vertex
    // past NVERT. The next ids follow the saved frontier's.
    expectResumeDies(
        "SSSP", 512 * 1024,
        [](guest::Process &proc, mem::Gva buf) {
            proc.writeValue<std::uint64_t>(buf + 32, 1);
            const auto frontier =
                proc.readValue<std::uint64_t>(buf + 24);
            proc.writeValue<std::uint32_t>(buf + 56 + 4 * frontier,
                                           0x7ffffff0);
        },
        "SSSP state next vertex 2147483632 out of range");
}

TEST(PreemptionTest, AcceleratorWithoutStateBufferIsForciblyReset)
{
    sim::PlatformParams p = sim::PlatformParams::harpDefaults();
    p.timeSlice = 100 * sim::kTickUs;
    System sys(makeOptimusConfig("MB", 1, p));
    AccelHandle &h1 = sys.attach(0, 1ULL << 30);
    AccelHandle &h2 = sys.attachShared(0);

    // h1 never sets a state buffer: it cannot cede on preempt.
    auto wl1 = workload::Workload::create("MB", h1, 8ULL << 20, 1);
    wl1->program();
    h1.start();

    auto wl2 = workload::Workload::create("MB", h2, 1ULL << 20, 2);
    wl2->program();
    h2.setupStateBuffer();
    h2.start();

    // The scheduler must recover: h2 completes, h1 was reset.
    EXPECT_EQ(h2.wait(), accel::Status::kDone);
    EXPECT_GT(sys.hv.forcedResets(), 0u);
    EXPECT_EQ(sys.hv.peekStatus(h1.vaccel()),
              accel::Status::kError);
}

TEST(PreemptionTest, CompletionDuringDrainYieldsDone)
{
    // A job that finishes exactly while a preempt is in flight must
    // surface DONE (not lose the result).
    sim::PlatformParams p = sim::PlatformParams::harpDefaults();
    p.timeSlice = 50 * sim::kTickUs;
    System sys(makeOptimusConfig("LL", 1, p));
    AccelHandle &h1 = sys.attach(0, 1ULL << 30);
    AccelHandle &h2 = sys.attachShared(0);
    h2.setupStateBuffer();

    // Short walks keep finishing near slice boundaries.
    for (int trial = 0; trial < 5; ++trial) {
        auto layout = workload::buildLinkedList(h1, 120, 50 + trial);
        h1.writeAppReg(accel::LinkedlistAccel::kRegHead,
                       layout.head.value());
        h1.writeAppReg(accel::LinkedlistAccel::kRegCount, 0);
        h1.setupStateBuffer();
        h1.start();
        EXPECT_EQ(h1.wait(), accel::Status::kDone);
        EXPECT_EQ(h1.result(), layout.checksum);
    }
}

TEST(PreemptionTest, PreemptDuringRestoreStillSaves)
{
    // A PREEMPT that lands while a RESUME is still streaming the
    // context back in must not be lost: once the restore completes
    // the device saves again and answers SAVED, and the job resumes
    // to a correct result later.
    System sys(makeOptimusConfig("MB", 1));
    AccelHandle &h = sys.attach(0, 1ULL << 30);
    auto wl = workload::Workload::create("MB", h, 1ULL << 20, 3);
    wl->program();
    h.setupStateBuffer();
    h.start();
    accel::Accelerator &dev = sys.platform.accel(0);
    ASSERT_TRUE(test::stepUntil(sys, [&]() { return dev.progress() > 0; }));

    dev.mmioWrite(accel::reg::kCtrl, accel::ctrl::kPreempt);
    ASSERT_TRUE(test::stepUntil(
        sys, [&]() { return dev.status() == accel::Status::kSaved; }));
    dev.mmioWrite(accel::reg::kCtrl, accel::ctrl::kResume);
    ASSERT_EQ(dev.status(), accel::Status::kRestoring);
    dev.mmioWrite(accel::reg::kCtrl, accel::ctrl::kPreempt);
    ASSERT_TRUE(test::stepUntil(sys, [&]() {
        return dev.status() == accel::Status::kSaved ||
               dev.status() == accel::Status::kDone;
    }));
    EXPECT_EQ(dev.status(), accel::Status::kSaved);

    dev.mmioWrite(accel::reg::kCtrl, accel::ctrl::kResume);
    EXPECT_EQ(h.wait(), accel::Status::kDone);
    EXPECT_TRUE(wl->verify());
}

TEST(PreemptionTest, SixteenTenantsAllComplete)
{
    // Scalability of temporal multiplexing: 16 virtual accelerators
    // on one physical LL, every job correct.
    sim::PlatformParams p = sim::PlatformParams::harpDefaults();
    p.timeSlice = 100 * sim::kTickUs;
    System sys(makeOptimusConfig("LL", 1, p));

    std::vector<AccelHandle *> handles;
    std::vector<workload::LinkedListLayout> layouts;
    for (int i = 0; i < 16; ++i) {
        handles.push_back(&sys.attach(0, 1ULL << 30));
        layouts.push_back(
            workload::buildLinkedList(*handles.back(), 3000,
                                      900 + i));
        handles.back()->writeAppReg(
            accel::LinkedlistAccel::kRegHead,
            layouts.back().head.value());
        handles.back()->writeAppReg(
            accel::LinkedlistAccel::kRegCount, 0);
        handles.back()->setupStateBuffer();
        handles.back()->start();
    }
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(handles[static_cast<std::size_t>(i)]->wait(),
                  accel::Status::kDone)
            << i;
        EXPECT_EQ(handles[static_cast<std::size_t>(i)]->result(),
                  layouts[static_cast<std::size_t>(i)].checksum)
            << i;
    }
    EXPECT_EQ(sys.hv.forcedResets(), 0u);
}

} // namespace

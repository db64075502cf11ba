/**
 * @file
 * Device-level save/resume round-trip for every benchmark accelerator
 * family: a job is preempted mid-flight directly at the device
 * (kPreempt, drain, kSaved), which saves its blob into the state
 * buffer in guest memory. The source's DMA window image, blob
 * included, is written over the window of a second System, whose
 * fresh accelerator instance then takes kResume and loads the blob.
 * The resumed job's result, progress, and verified output must be
 * identical to an uninterrupted reference run — this is exactly the
 * contract the fleet migration layer depends on.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "hv/system.hh"
#include "hv/workloads.hh"

using namespace optimus;

namespace {

constexpr std::uint64_t kBytes = 256 * 1024;
constexpr std::uint64_t kSeed = 5;

struct Prepared
{
    hv::System sys;
    hv::AccelHandle *handle;
    std::unique_ptr<hv::workload::Workload> wl;

    explicit Prepared(const std::string &app)
        : sys(hv::makeOptimusConfig(app, 1))
    {
        handle = &sys.attach(0, 1ULL << 30);
        wl = hv::workload::Workload::create(app, *handle, kBytes,
                                            kSeed);
        wl->program();
        handle->setupStateBuffer();
        handle->start();
    }

    accel::Accelerator &dev() { return sys.platform.accel(0); }

    /** PREEMPT at the device and pump until its blob is saved. */
    void
    preempt()
    {
        dev().mmioWrite(accel::reg::kCtrl, accel::ctrl::kPreempt);
        handle->pumpUntil(
            [&]() { return dev().status() == accel::Status::kSaved; });
    }

    /** A scheduled slot with a quiescent pipeline: start a placeholder
     *  job (so the offset table is programmed), then preempt it. */
    void
    park()
    {
        handle->pumpUntil([&]() {
            return dev().status() == accel::Status::kRunning;
        });
        preempt();
    }

    /** Write @p src's DMA window image, saved blob included, over
     *  this System's window, then RESUME from it. */
    void
    resumeFrom(Prepared &src)
    {
        const std::uint64_t base =
            src.handle->vaccel().windowBase().value();
        ASSERT_EQ(base, handle->vaccel().windowBase().value());
        const std::uint64_t size = src.handle->heap().registeredBytes();
        ASSERT_EQ(size, handle->heap().registeredBytes());
        std::vector<std::uint8_t> image(size);
        src.handle->memRead(mem::Gva(base), image.data(), size);
        handle->memWrite(mem::Gva(base), image.data(), size);
        dev().mmioWrite(accel::reg::kCtrl, accel::ctrl::kResume);
    }
};

class CheckpointTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(CheckpointTest, RestoredJobMatchesUninterruptedRun)
{
    const std::string app = GetParam();

    // Reference: the same job, never interrupted.
    Prepared ref(app);
    ASSERT_EQ(ref.handle->wait(), accel::Status::kDone) << app;
    ASSERT_TRUE(ref.wl->verify()) << app;
    const std::uint64_t ref_result = ref.handle->result();
    const std::uint64_t ref_progress = ref.handle->progress();
    ASSERT_GT(ref_progress, 0u) << app;

    // Source: identical job, preempted at the device as soon as it
    // shows forward progress.
    Prepared src(app);
    src.handle->pumpUntil(
        [&]() { return src.dev().progress() > 0; });
    // Most apps are genuinely mid-flight here; a few (e.g. SW) post
    // their first PROGRESS bump coarsely, so partial progress is not
    // asserted — the round-trip contract is identical either way.
    src.preempt();

    // Destination: same platform and workload layout, its placeholder job
    // parked, then resumed from the source's window image.
    Prepared dst(app);
    dst.park();
    dst.resumeFrom(src);
    EXPECT_EQ(dst.handle->wait(), accel::Status::kDone) << app;
    EXPECT_EQ(dst.handle->result(), ref_result) << app;
    EXPECT_EQ(dst.handle->progress(), ref_progress) << app;
    EXPECT_TRUE(dst.wl->verify()) << app << " output mismatch";
    // The destination device really did the remaining work.
    EXPECT_GT(dst.dev().dma().readsIssued() +
                  dst.dev().dma().writesIssued(),
              0u)
        << app;
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, CheckpointTest,
    ::testing::Values("AES", "MD5", "SHA", "FIR", "GRN", "RSD", "SW",
                      "GAU", "GRS", "SBL", "SSSP", "BTC", "MB", "LL"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

/** A blob saved after completion resumes straight to DONE. */
TEST(CheckpointTest, CompletedJobRestoresToDone)
{
    Prepared ref("SHA");
    ASSERT_EQ(ref.handle->wait(), accel::Status::kDone);
    // PREEMPT the finished device: it saves a DONE blob.
    ref.preempt();
    const mem::Gva buf(ref.handle->mmioRead(accel::reg::kStateBuf));
    EXPECT_EQ(ref.handle->process().readValue<std::uint64_t>(buf),
              static_cast<std::uint64_t>(accel::Status::kDone));

    Prepared dst("SHA");
    dst.park();
    dst.resumeFrom(ref);
    EXPECT_EQ(dst.handle->wait(), accel::Status::kDone);
    EXPECT_EQ(dst.handle->result(), ref.handle->result());
}

} // namespace

/**
 * @file
 * End-to-end integration: every benchmark accelerator runs a real
 * job through the full stack (guest library -> hypervisor traps ->
 * hardware monitor -> multiplexer tree -> auditors -> IOMMU -> DRAM)
 * and its output is verified against the software reference. Runs
 * under both OPTIMUS and pass-through fabrics. A flipped output byte
 * must fail the stream apps' verify().
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "accel/regs.hh"
#include "accel/streaming_accelerator.hh"
#include "hv/system.hh"
#include "hv/workloads.hh"

using namespace optimus;

namespace {

using Param = std::tuple<std::string, bool>; // app, optimus mode

class EndToEndTest : public ::testing::TestWithParam<Param>
{
};

TEST_P(EndToEndTest, JobCompletesAndOutputMatchesSoftware)
{
    const auto &[app, optimus_mode] = GetParam();
    hv::PlatformConfig cfg = optimus_mode
                                 ? hv::makeOptimusConfig(app, 1)
                                 : hv::makePassthroughConfig(app);
    hv::System sys(cfg);
    hv::AccelHandle &h = sys.attach(0, 1ULL << 30);

    auto wl = hv::workload::Workload::create(app, h, 256 * 1024, 3);
    wl->program();
    h.start();
    ASSERT_EQ(h.wait(), accel::Status::kDone) << app;
    EXPECT_TRUE(wl->verify()) << app << " output mismatch";
    EXPECT_GT(sys.eq.now(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, EndToEndTest,
    ::testing::Combine(::testing::Values("AES", "MD5", "SHA", "FIR",
                                         "GRN", "RSD", "SW", "GAU",
                                         "GRS", "SBL", "SSSP", "BTC",
                                         "MB", "LL"),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<Param> &info) {
        return std::get<0>(info.param) +
               (std::get<1>(info.param) ? "_optimus"
                                        : "_passthrough");
    });

/**
 * verify() checks the device's output on every call: one flipped
 * output byte fails it, and restoring the byte passes it again.
 */
class VerifyReadsOutputTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(VerifyReadsOutputTest, FlippedOutputByteFailsVerify)
{
    const std::string app = GetParam();
    hv::System sys(hv::makeOptimusConfig(app, 1));
    hv::AccelHandle &h = sys.attach(0, 1ULL << 30);
    auto wl = hv::workload::Workload::create(app, h, 16 * 1024, 5);
    wl->program();
    h.start();
    ASSERT_EQ(h.wait(), accel::Status::kDone) << app;
    ASSERT_TRUE(wl->verify()) << app;

    const mem::Gva dst(
        h.mmioRead(accel::reg::appReg(accel::stream_reg::kDst)));
    const auto byte = h.process().readValue<std::uint8_t>(dst);
    const auto flipped = static_cast<std::uint8_t>(byte ^ 0x01);
    h.memWrite(dst, &flipped, 1);
    EXPECT_FALSE(wl->verify()) << app;
    h.memWrite(dst, &byte, 1);
    EXPECT_TRUE(wl->verify()) << app;
}

INSTANTIATE_TEST_SUITE_P(
    StreamApps, VerifyReadsOutputTest,
    ::testing::Values("AES", "MD5", "SHA", "FIR", "GRS", "GAU", "SBL"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

/** The same job must produce identical results under both fabrics. */
class FabricEquivalenceTest
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(FabricEquivalenceTest, ResultIndependentOfFabric)
{
    const std::string app = GetParam();
    std::uint64_t results[2];
    for (int mode = 0; mode < 2; ++mode) {
        hv::PlatformConfig cfg =
            mode == 0 ? hv::makeOptimusConfig(app, 1)
                      : hv::makePassthroughConfig(app);
        hv::System sys(cfg);
        hv::AccelHandle &h = sys.attach(0, 1ULL << 30);
        auto wl =
            hv::workload::Workload::create(app, h, 64 * 1024, 11);
        wl->program();
        h.start();
        EXPECT_EQ(h.wait(), accel::Status::kDone);
        results[mode] = h.result();
    }
    EXPECT_EQ(results[0], results[1]) << app;
}

INSTANTIATE_TEST_SUITE_P(ResultApps, FabricEquivalenceTest,
                         ::testing::Values("MD5", "SHA", "SW", "BTC",
                                           "LL", "RSD"));

/** Eight different accelerators spatially multiplexed at once. */
TEST(SpatialMultiplexTest, EightHeterogeneousAppsRunConcurrently)
{
    hv::PlatformConfig cfg;
    cfg.apps = {"AES", "MD5", "SHA", "FIR",
                "GRN", "GRS", "BTC", "LL"};
    hv::System sys(cfg);

    std::vector<hv::AccelHandle *> handles;
    std::vector<std::unique_ptr<hv::workload::Workload>> work;
    for (std::uint32_t i = 0; i < cfg.apps.size(); ++i) {
        handles.push_back(&sys.attach(i, 1ULL << 30));
        work.push_back(hv::workload::Workload::create(
            cfg.apps[i], *handles[i], 64 * 1024, 100 + i));
        work[i]->program();
    }
    for (auto *h : handles)
        h->start();
    for (std::uint32_t i = 0; i < handles.size(); ++i) {
        EXPECT_EQ(handles[i]->wait(), accel::Status::kDone)
            << cfg.apps[i];
        EXPECT_TRUE(work[i]->verify()) << cfg.apps[i];
    }
}

/** DMA isolation: concurrent tenants never corrupt each other. */
TEST(SpatialMultiplexTest, EightTenantsOutputsAllVerify)
{
    hv::PlatformConfig cfg = hv::makeOptimusConfig("AES", 8);
    hv::System sys(cfg);

    std::vector<hv::AccelHandle *> handles;
    std::vector<std::unique_ptr<hv::workload::Workload>> work;
    for (std::uint32_t i = 0; i < 8; ++i) {
        handles.push_back(&sys.attach(i, 1ULL << 30));
        work.push_back(hv::workload::Workload::create(
            "AES", *handles[i], 32 * 1024, 200 + i));
        work[i]->program();
    }
    for (auto *h : handles)
        h->start();
    for (std::uint32_t i = 0; i < 8; ++i) {
        EXPECT_EQ(handles[i]->wait(), accel::Status::kDone);
        EXPECT_TRUE(work[i]->verify()) << "tenant " << i;
    }
}

} // namespace

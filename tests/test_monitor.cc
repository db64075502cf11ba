/**
 * @file
 * Hardware-monitor tests: multiplexer-tree structure and round-robin
 * fairness, auditor address translation / isolation / tag filtering
 * (page table slicing's hardware half), the VCU management protocol,
 * and the resource model backing Table 2.
 */

#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "ccip/shell.hh"
#include "fpga/auditor.hh"
#include "fpga/hardware_monitor.hh"
#include "fpga/mmio_layout.hh"
#include "fpga/mux_tree.hh"
#include "fpga/resources.hh"
#include "iommu/iommu.hh"
#include "mem/host_memory.hh"
#include "mem/memory_controller.hh"
#include "sim/event_queue.hh"
#include "sim/platform_params.hh"

using namespace optimus;
using namespace optimus::fpga;

namespace {

ccip::DmaTxnPtr
makeTxn(sim::EventQueue &eq, std::uint64_t gva, bool write = false)
{
    ccip::DmaTxnPtr t = ccip::makeTxn(eq.arena());
    t->gva = mem::Gva(gva);
    t->isWrite = write;
    t->bytes = 64;
    return t;
}

// ------------------------------------------------------------- mux tree

TEST(MuxTreeTest, DefaultEightLeafTreeHasThreeLevels)
{
    sim::EventQueue eq;
    sim::PlatformParams p;
    MuxTree tree(eq, p, 8, 2);
    EXPECT_EQ(tree.levels(), 3u);
    MuxTree t4(eq, p, 4, 2);
    EXPECT_EQ(t4.levels(), 2u);
    MuxTree t8w(eq, p, 8, 8);
    EXPECT_EQ(t8w.levels(), 1u);
    MuxTree t1(eq, p, 1, 2);
    EXPECT_EQ(t1.levels(), 1u);
}

TEST(MuxTreeTest, PacketsTraverseToRootWithPipelineLatency)
{
    sim::EventQueue eq;
    sim::PlatformParams p;
    MuxTree tree(eq, p, 8, 2);
    std::vector<sim::Tick> granted;
    std::vector<sim::Tick> leaves;
    tree.setRootSink([&](ccip::DmaTxnPtr, sim::Tick leave) {
        granted.push_back(eq.now());
        leaves.push_back(leave);
    });
    auto [leaf, port] = tree.leafAttach(0);
    ASSERT_TRUE(leaf->hasSpace(port));
    leaf->reserve(port);
    leaf->arrive(port, makeTxn(eq, 0x1000));
    eq.runAll();
    ASSERT_EQ(granted.size(), 1u);
    // An idle tree grants on arrival at every level: the root grants
    // after two levels' pipeline latency at 400 MHz and hands the
    // sink the tick the packet leaves its own pipeline, one level
    // later.
    sim::Tick per_level = p.muxUpCyclesPerLevel *
                          sim::periodFromMhz(p.fpgaIfaceMhz);
    EXPECT_EQ(granted[0], 2 * per_level);
    EXPECT_EQ(leaves[0], 3 * per_level);
}

/** Keeps one leaf's input saturated, honoring the credit protocol. */
class LeafFeeder
{
  public:
    LeafFeeder(sim::EventQueue &eq, MuxTree &tree, std::uint32_t leaf,
               int budget)
        : _eq(eq), _leaf(leaf), _budget(budget)
    {
        std::tie(_node, _port) = tree.leafAttach(leaf);
        _node->setWake(_port, [this]() { pump(); });
        pump();
    }

    void
    pump()
    {
        while (_budget > 0 && _node->hasSpace(_port)) {
            _node->reserve(_port);
            auto t = makeTxn(_eq, 0x1000);
            t->tag = static_cast<ccip::AccelTag>(_leaf);
            _node->arrive(_port, std::move(t));
            --_budget;
        }
    }

  private:
    sim::EventQueue &_eq;
    std::uint32_t _leaf;
    MuxNode *_node;
    std::uint32_t _port;
    int _budget;
};

TEST(MuxTreeTest, RoundRobinSharesRootBandwidthEqually)
{
    sim::EventQueue eq;
    sim::PlatformParams p;
    MuxTree tree(eq, p, 8, 2);
    std::map<std::uint16_t, int> per_tag;
    tree.setRootSink(
        [&](ccip::DmaTxnPtr t, sim::Tick) { ++per_tag[t->tag]; });

    // Saturate: every leaf offers 400 packets through the credit
    // protocol.
    std::vector<std::unique_ptr<LeafFeeder>> feeders;
    for (std::uint32_t leaf = 0; leaf < 8; ++leaf)
        feeders.push_back(
            std::make_unique<LeafFeeder>(eq, tree, leaf, 400));

    // Run for exactly 1600 root cycles: room for half the packets.
    eq.runUntil(1600 * sim::periodFromMhz(p.fpgaIfaceMhz));
    int total = 0;
    for (auto &[tag, n] : per_tag)
        total += n;
    ASSERT_GT(total, 1000);
    // Fairness: each of the 8 leaves gets 1/8 +- one packet-ish.
    for (auto &[tag, n] : per_tag) {
        EXPECT_NEAR(n, total / 8.0, 3.0) << "leaf " << tag;
    }
}

TEST(MuxTreeTest, SingleActiveLeafGetsFullBandwidth)
{
    sim::EventQueue eq;
    sim::PlatformParams p;
    MuxTree tree(eq, p, 8, 2);
    int delivered = 0;
    tree.setRootSink([&](ccip::DmaTxnPtr, sim::Tick) { ++delivered; });
    LeafFeeder feeder(eq, tree, 3, 100);
    eq.runAll();
    EXPECT_EQ(delivered, 100);
    // The sole active leaf was never throttled below 1 pkt/cycle
    // (plus pipeline depth).
    EXPECT_LE(eq.now(), (100 + 40) * 2500u);
}

TEST(MuxTreeTest, CreditsBoundInFlightPackets)
{
    sim::EventQueue eq;
    sim::PlatformParams p;
    MuxTree tree(eq, p, 8, 2);
    int delivered = 0;
    tree.setRootSink([&](ccip::DmaTxnPtr, sim::Tick) { ++delivered; });

    // Without consuming credits the leaf accepts only kQueueDepth
    // packets before reporting full.
    auto [leaf, port] = tree.leafAttach(0);
    int accepted = 0;
    while (leaf->hasSpace(port) && accepted < 100) {
        leaf->reserve(port);
        ++accepted;
    }
    EXPECT_EQ(accepted,
              static_cast<int>(MuxNode::kQueueDepth));
}

TEST(MuxTreeTest, DownPathBroadcastsAfterLatency)
{
    sim::EventQueue eq;
    sim::PlatformParams p;
    MuxTree tree(eq, p, 8, 2);
    sim::Tick delivered_at = 0;
    tree.setDownSink([&](ccip::DmaTxnPtr) { delivered_at = eq.now(); });
    tree.down(makeTxn(eq, 0));
    eq.runAll();
    EXPECT_EQ(delivered_at, tree.downLatency());
}

// -------------------------------------------------------------- auditor

/** Auditor 3 feeding a one-leaf tree whose root collects what it
 *  forwards. */
class AuditorFixture : public ::testing::Test
{
  protected:
    AuditorFixture()
    {
        OffsetEntry e;
        e.valid = true;
        e.gvaBase = 0x100000000000ULL;
        e.offset = 0x20000000000ULL - e.gvaBase; // slice at 2 TB
        e.window = 64ULL << 30;
        auditor.setOffsetEntry(e);
        auto [leaf, port] = tree.leafAttach(0);
        auditor.attachLeaf(*leaf, port);
        tree.setRootSink([this](ccip::DmaTxnPtr t, sim::Tick) {
            forwarded.push_back(std::move(t));
        });
    }

    sim::EventQueue eq;
    sim::PlatformParams params;
    MuxTree tree{eq, params, 1};
    Auditor auditor{eq, params, 3};
    std::vector<ccip::DmaTxnPtr> forwarded;
};

TEST_F(AuditorFixture, TranslatesGvaToIovaAndTags)
{
    auto t = makeTxn(eq, 0x100000000040ULL);
    auditor.dmaRequest(std::move(t));
    eq.runAll();
    ASSERT_EQ(forwarded.size(), 1u);
    EXPECT_EQ(forwarded[0]->iova.value(), 0x20000000040ULL);
    EXPECT_EQ(forwarded[0]->tag, 3);
}

TEST_F(AuditorFixture, RejectsDmaBelowWindow)
{
    bool error = false;
    auto t = makeTxn(eq, 0x0fff00000000ULL);
    t->onComplete = [&](ccip::DmaTxn &d) { error = d.error; };
    auditor.dmaRequest(std::move(t));
    eq.runAll();
    EXPECT_TRUE(forwarded.empty());
    EXPECT_TRUE(error);
    EXPECT_EQ(auditor.rejectedDmas(), 1u);
}

TEST_F(AuditorFixture, RejectsDmaPastWindowEnd)
{
    // One byte past the 64 GB window.
    auto t = makeTxn(eq, 0x100000000000ULL + (64ULL << 30) - 63);
    bool error = false;
    t->onComplete = [&](ccip::DmaTxn &d) { error = d.error; };
    auditor.dmaRequest(std::move(t));
    eq.runAll();
    EXPECT_TRUE(error);
}

TEST_F(AuditorFixture, LastInWindowLineIsAccepted)
{
    auto t = makeTxn(eq, 0x100000000000ULL + (64ULL << 30) - 64);
    auditor.dmaRequest(std::move(t));
    eq.runAll();
    EXPECT_EQ(forwarded.size(), 1u);
}

TEST_F(AuditorFixture, InvalidEntryRejectsEverything)
{
    auditor.setOffsetEntry(OffsetEntry{});
    auto t = makeTxn(eq, 0x100000000000ULL);
    bool error = false;
    t->onComplete = [&](ccip::DmaTxn &d) { error = d.error; };
    auditor.dmaRequest(std::move(t));
    eq.runAll();
    EXPECT_TRUE(error);
}

TEST_F(AuditorFixture, DownstreamTagFilter)
{
    struct Dev : AccelDevice
    {
        int responses = 0;
        void dmaResponse(ccip::DmaTxnPtr) override { ++responses; }
        std::uint64_t mmioRead(std::uint64_t) override { return 0; }
        void mmioWrite(std::uint64_t, std::uint64_t) override {}
        void hardReset() override {}
    } dev;
    auditor.setDevice(&dev);

    auto mine = makeTxn(eq, 0);
    mine->tag = 3;
    auto other = makeTxn(eq, 0);
    other->tag = 5;
    auditor.deliverDown(std::move(mine));
    auditor.deliverDown(std::move(other));
    eq.runAll();
    EXPECT_EQ(dev.responses, 1);
    EXPECT_EQ(auditor.discardedResponses(), 1u);
}

// ------------------------------------------------ monitor + VCU protocol

class MonitorFixture : public ::testing::Test
{
  protected:
    std::uint64_t
    vcuRead(std::uint64_t reg)
    {
        std::uint64_t out = 0;
        ccip::MmioOp op;
        op.isWrite = false;
        op.offset = kVcuMmioBase + reg;
        op.onComplete = [&](std::uint64_t v) { out = v; };
        shell.mmioFromHost(std::move(op));
        eq.runAll();
        return out;
    }

    void
    vcuWrite(std::uint64_t reg, std::uint64_t value)
    {
        ccip::MmioOp op;
        op.isWrite = true;
        op.offset = kVcuMmioBase + reg;
        op.value = value;
        shell.mmioFromHost(std::move(op));
        eq.runAll();
    }

    sim::EventQueue eq;
    sim::PlatformParams params;
    mem::HostMemory memory{4ULL << 30};
    mem::MemoryController memctl{eq, params};
    iommu::Iommu iommu{eq, params};
    ccip::Shell shell{eq, params, memory, memctl, iommu};
    HardwareMonitor monitor{eq, params, shell, 4, 2};
};

TEST_F(MonitorFixture, VcuIdentification)
{
    EXPECT_EQ(vcuRead(vcu_reg::kMagic), vcu_reg::kMagicValue);
    EXPECT_EQ(vcuRead(vcu_reg::kNumAccels), 4u);
    EXPECT_EQ(vcuRead(vcu_reg::kCompat), 1u);
}

TEST_F(MonitorFixture, OffsetTableProgrammingReachesAuditor)
{
    vcuWrite(vcu_reg::kOffsetIndex, 2);
    vcuWrite(vcu_reg::kOffsetGvaBase, 0x7000000000ULL);
    vcuWrite(vcu_reg::kOffsetValue, 0x1000000000ULL);
    vcuWrite(vcu_reg::kOffsetWindow, 64ULL << 30);
    vcuWrite(vcu_reg::kOffsetCommit, 1);

    const OffsetEntry &e = monitor.auditor(2).offsetEntry();
    EXPECT_TRUE(e.valid);
    EXPECT_EQ(e.gvaBase, 0x7000000000ULL);
    EXPECT_EQ(e.offset, 0x1000000000ULL);
    EXPECT_EQ(e.window, 64ULL << 30);
    // Other auditors untouched.
    EXPECT_FALSE(monitor.auditor(0).offsetEntry().valid);
}

TEST_F(MonitorFixture, ResetTablePulsesSelectedAccelerators)
{
    struct Dev : AccelDevice
    {
        int resets = 0;
        void dmaResponse(ccip::DmaTxnPtr) override {}
        std::uint64_t mmioRead(std::uint64_t) override { return 0; }
        void mmioWrite(std::uint64_t, std::uint64_t) override {}
        void hardReset() override { ++resets; }
    };
    Dev devs[4];
    for (std::uint32_t i = 0; i < 4; ++i)
        monitor.auditor(i).setDevice(&devs[i]);

    vcuWrite(vcu_reg::kResetTable, 0b0101);
    EXPECT_EQ(devs[0].resets, 1);
    EXPECT_EQ(devs[1].resets, 0);
    EXPECT_EQ(devs[2].resets, 1);
    EXPECT_EQ(devs[3].resets, 0);
}

TEST_F(MonitorFixture, AccelMmioRoutedByPageAndIsolated)
{
    struct Dev : AccelDevice
    {
        std::uint64_t last_reg = ~0ULL;
        std::uint64_t last_val = 0;
        void dmaResponse(ccip::DmaTxnPtr) override {}
        std::uint64_t mmioRead(std::uint64_t r) override
        {
            return r + 1000;
        }
        void
        mmioWrite(std::uint64_t r, std::uint64_t v) override
        {
            last_reg = r;
            last_val = v;
        }
        void hardReset() override {}
    };
    Dev devs[4];
    for (std::uint32_t i = 0; i < 4; ++i)
        monitor.auditor(i).setDevice(&devs[i]);

    ccip::MmioOp op;
    op.isWrite = true;
    op.offset = accelMmioBase(1) + 0x40;
    op.value = 77;
    shell.mmioFromHost(std::move(op));
    eq.runAll();
    EXPECT_EQ(devs[1].last_reg, 0x40u);
    EXPECT_EQ(devs[1].last_val, 77u);
    EXPECT_EQ(devs[0].last_reg, ~0ULL);
    EXPECT_EQ(devs[2].last_reg, ~0ULL);
}

TEST_F(MonitorFixture, UpiReadEventBudgetAndLatency)
{
    // One read from accelerator 1 through both tree levels, the VCU,
    // the UPI link, the IOMMU and DRAM, and back down.
    struct Dev : AccelDevice
    {
        sim::EventQueue *eq = nullptr;
        sim::Tick doneAt = 0;
        void dmaResponse(ccip::DmaTxnPtr) override { doneAt = eq->now(); }
        std::uint64_t mmioRead(std::uint64_t) override { return 0; }
        void mmioWrite(std::uint64_t, std::uint64_t) override {}
        void hardReset() override {}
    };
    Dev dev;
    dev.eq = &eq;
    monitor.auditor(1).setDevice(&dev);
    OffsetEntry e;
    e.valid = true;
    e.window = mem::kPage2M;
    monitor.auditor(1).setOffsetEntry(e);
    iommu.pageTable().map(mem::Iova(0), mem::Hpa(mem::kPage2M));

    struct Read
    {
        sim::Tick latency;
        std::uint64_t events;
    };
    auto read = [&]() {
        auto t = makeTxn(eq, 0x40);
        t->vc = ccip::VChannel::kUpi;
        sim::Tick issued = eq.now();
        std::uint64_t before = eq.executed();
        monitor.auditor(1).dmaRequest(std::move(t));
        eq.runAll();
        return Read{dev.doneAt - issued, eq.executed() - before};
    };

    // A cold IOTLB pays the page walk.
    Read miss = read();
    EXPECT_EQ(miss.latency, 1052500u); // 1,052.5 ns

    // A warm hit: the auditor's latency and pump, a grant at each
    // level and the hop between them, the root-to-shell hop through
    // the VCU, the request crossing, the IOTLB hit, the return
    // crossing (DRAM finishing inside it), the response link, the
    // tree's down path and the auditor's down latency.
    Read hit = read();
    EXPECT_EQ(hit.latency, 497500u); // 497.5 ns
    EXPECT_EQ(hit.events, 12u);
}

TEST_F(MonitorFixture, OutOfRangeMmioReadsAsAllOnes)
{
    std::uint64_t got = 0;
    ccip::MmioOp op;
    op.isWrite = false;
    op.offset = accelMmioBase(3) + kAccelMmioBytes + 8; // past slots
    op.onComplete = [&](std::uint64_t v) { got = v; };
    shell.mmioFromHost(std::move(op));
    eq.runAll();
    EXPECT_EQ(got, ~0ULL);
    EXPECT_EQ(monitor.droppedMmios(), 1u);
}

// ------------------------------------------------------------ resources

TEST(ResourceModelTest, Table2CalibrationPointsAreExact)
{
    // n = 1 reproduces the pass-through column; n = 8 the OPTIMUS
    // column, for every app.
    for (const auto &app : ResourceModel::apps()) {
        EXPECT_NEAR(ResourceModel::appAlm(app, 1), app.almPt, 1e-9)
            << app.name;
        EXPECT_NEAR(ResourceModel::appAlm(app, 8), app.almOpt8, 1e-6)
            << app.name;
        EXPECT_NEAR(ResourceModel::appBram(app, 1), app.bramPt, 1e-9)
            << app.name;
        EXPECT_NEAR(ResourceModel::appBram(app, 8), app.bramOpt8,
                    1e-6)
            << app.name;
    }
}

TEST(ResourceModelTest, MonitorMatchesPaperAtDefaultConfig)
{
    EXPECT_NEAR(ResourceModel::monitorAlm(8, 2), 6.16, 1e-9);
    EXPECT_NEAR(ResourceModel::monitorBram(8, 2), 0.48, 1e-9);
    // Fewer accelerators need a smaller monitor.
    EXPECT_LT(ResourceModel::monitorAlm(2, 2),
              ResourceModel::monitorAlm(8, 2));
}

TEST(ResourceModelTest, TreeNodeCounts)
{
    EXPECT_EQ(ResourceModel::treeNodes(8, 2), 7u); // 4 + 2 + 1
    EXPECT_EQ(ResourceModel::treeNodes(4, 2), 3u);
    EXPECT_EQ(ResourceModel::treeNodes(8, 8), 1u);
    EXPECT_EQ(ResourceModel::treeNodes(1, 2), 1u);
}

TEST(ResourceModelTest, FlatEightWayMuxCannotClose400Mhz)
{
    // The design-forcing constraint from Section 5: binary nodes
    // pass 400 MHz, a flat 8-way multiplexer does not.
    EXPECT_GE(ResourceModel::maxMuxFreqMhz(2), 400.0);
    EXPECT_LT(ResourceModel::maxMuxFreqMhz(8), 400.0);
}

TEST(ResourceModelTest, LookupKnowsAllFourteenApps)
{
    EXPECT_EQ(ResourceModel::apps().size(), 14u);
    EXPECT_EQ(std::string(ResourceModel::lookup("LL").name), "LL");
    EXPECT_EQ(ResourceModel::lookup("MD5").freqMhz, 100u);
    EXPECT_EQ(ResourceModel::lookup("MB").freqMhz, 400u);
    EXPECT_DEATH(ResourceModel::lookup("NOPE"), "unknown");
}

} // namespace

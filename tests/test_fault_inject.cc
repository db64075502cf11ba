/**
 * @file
 * Fault-injection plane tests: the FaultPlan grammar, dropped and
 * delayed CCI-P responses with bounded retry, forced IOMMU
 * translation faults, IOTLB poisoning and conflict-evict victim
 * attribution (2 MB pages), wild DMAs caught by auditors, wedge
 * semantics, and the zero-perturbation contract for empty/inert
 * plans.
 */

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "accel/membench_accel.hh"
#include "exp/builders.hh"
#include "fault/fault_injector.hh"
#include "fault/fault_plan.hh"
#include "hv/system.hh"
#include "hv/workloads.hh"
#include "iommu/iotlb.hh"

using namespace optimus;
using namespace optimus::hv;

namespace {

struct RecordingSink : sim::TraceSink
{
    std::vector<sim::TraceRecord> records;
    void
    record(const sim::TraceBus &, const sim::TraceRecord &r) override
    {
        records.push_back(r);
    }
};

// ------------------------------------------------------ plan grammar

TEST(FaultPlanTest, ParsesDirectives)
{
    auto plan = fault::FaultPlan::parse(
        "hang@2:at=5us;"
        "drop:vm=1,rate=0.25,count=7,seed=42;"
        "delay:extra=500ns,rate=0.5;"
        "poison_iotlb:at=1ms,period=100us,count=3,set=9;"
        "watchdog:deadline=2ms");
    ASSERT_EQ(plan.directives().size(), 5u);

    const auto &h = plan.directives()[0];
    EXPECT_EQ(h.kind, fault::FaultDirective::Kind::kHang);
    EXPECT_EQ(h.slot, 2);
    EXPECT_EQ(h.at, 5 * sim::kTickUs);

    const auto &d = plan.directives()[1];
    EXPECT_EQ(d.kind, fault::FaultDirective::Kind::kDrop);
    EXPECT_EQ(d.vm, 1);
    EXPECT_DOUBLE_EQ(d.rate, 0.25);
    EXPECT_EQ(d.count, 7u);
    EXPECT_EQ(d.seed, 42u);

    const auto &dl = plan.directives()[2];
    EXPECT_EQ(dl.kind, fault::FaultDirective::Kind::kDelay);
    EXPECT_EQ(dl.extra, 500 * sim::kTickNs);

    const auto &p = plan.directives()[3];
    EXPECT_EQ(p.at, sim::kTickMs);
    EXPECT_EQ(p.period, 100 * sim::kTickUs);
    EXPECT_EQ(p.set, 9u);

    const auto &w = plan.directives()[4];
    EXPECT_EQ(w.kind, fault::FaultDirective::Kind::kWatchdog);
    EXPECT_EQ(w.deadline, 2 * sim::kTickMs);

    EXPECT_FALSE(plan.empty());
    EXPECT_TRUE(fault::FaultPlan::parse("").empty());
    EXPECT_EQ(fault::FaultPlan::parse("").summary(), "none");
    EXPECT_NE(plan.summary().find("hang@2"), std::string::npos);
}

TEST(FaultPlanTest, RejectsMalformed)
{
    EXPECT_THROW(fault::FaultPlan::parse("explode@0"),
                 std::invalid_argument);
    EXPECT_THROW(fault::FaultPlan::parse("drop:rate=1.5"),
                 std::invalid_argument);
    EXPECT_THROW(fault::FaultPlan::parse("drop:bogus=1"),
                 std::invalid_argument);
    EXPECT_THROW(fault::FaultPlan::parse("watchdog"),
                 std::invalid_argument); // deadline= required
    EXPECT_THROW(fault::FaultPlan::parse("delay:rate=0.5"),
                 std::invalid_argument); // extra= required
    // Numbers that are not finite, negative, or past their field's
    // range never reach a cast: each is a clean parse error.
    for (const char *plan :
         {"hang@0:at=nan", "hang@0:at=inf", "hang@0:at=-inf",
          "hang@0:at=1e30s", "hang@0:at=-1us", "hang@0:at=2e7s",
          "watchdog:deadline=nan", "hang@0:period=inf",
          "drop:rate=nan", "drop:rate=-nan", "drop:rate=-0.5",
          "drop:vm=-5", "drop:vm=+5", "drop:vm= 5", "drop:vm=2147483648",
          "hang@99999999999", "hang@-1", "hang@2147483648",
          "drop:count=-3", "drop:seed=18446744073709551616",
          "poison_iotlb:set=4294967296", "drop:count=0x"}) {
        EXPECT_THROW(fault::FaultPlan::parse(plan), std::invalid_argument)
            << plan;
    }
    // The largest in-range values still parse.
    fault::FaultPlan edge = fault::FaultPlan::parse(
        "hang@2147483647:at=1e7s;drop:vm=2147483647,"
        "seed=18446744073709551615,rate=0");
    ASSERT_EQ(edge.directives().size(), 2u);
    EXPECT_EQ(edge.directives()[0].slot, 2147483647);
    EXPECT_EQ(edge.directives()[0].at, 10000000 * sim::kTickSec);
    EXPECT_EQ(edge.directives()[1].vm, 2147483647);
    EXPECT_EQ(edge.directives()[1].seed, ~std::uint64_t(0));
}

// ------------------------------------------- DMA drop/delay + retry

/** One MB job that runs to a fixed completion target. */
std::unique_ptr<workload::Workload>
mbJob(AccelHandle &h)
{
    return workload::Workload::create("MB", h, 1ULL << 20, 7);
}

TEST(DmaFaultTest, DropIsRetriedAndBounded)
{
    System sys(makeOptimusConfig("MB", 1));
    auto inj = exp::installFaults(sys, "drop:rate=1,count=2");
    ASSERT_NE(inj, nullptr);

    AccelHandle &h = sys.attach(0);
    auto wl = mbJob(h);
    wl->program();
    h.start();
    EXPECT_EQ(h.wait(), accel::Status::kDone);
    EXPECT_TRUE(wl->verify());

    // Both drops were re-issued after the backoff; neither exhausted
    // the retry budget, so the job never saw an error.
    EXPECT_EQ(sys.platform.shell().dmaDropped(), 2u);
    EXPECT_EQ(sys.platform.shell().dmaRetries(), 2u);
    EXPECT_EQ(inj->injections(), 2u);
}

TEST(DmaFaultTest, ExhaustedRetriesSurfaceAsDeviceError)
{
    System sys(makeOptimusConfig("MB", 1));
    // Every response (including every retry) is dropped: the first
    // transaction burns its full retry budget and errors out.
    auto inj = exp::installFaults(sys, "drop:rate=1");

    AccelHandle &h = sys.attach(0);
    auto wl = mbJob(h);
    wl->program();
    h.start();
    EXPECT_EQ(h.wait(), accel::Status::kError);
    EXPECT_NE(h.errorStatus() & accel::errst::kDeviceError, 0u);
    EXPECT_GE(sys.platform.shell().dmaRetries(), 3u);
}

TEST(DmaFaultTest, DelayPreservesResults)
{
    std::uint64_t baseResult = 0;
    sim::Tick baseEnd = 0;
    {
        System sys(makeOptimusConfig("MB", 1));
        AccelHandle &h = sys.attach(0);
        auto wl = mbJob(h);
        wl->program();
        h.start();
        EXPECT_EQ(h.wait(), accel::Status::kDone);
        baseResult = h.result();
        baseEnd = sys.eq.now();
    }
    {
        System sys(makeOptimusConfig("MB", 1));
        auto inj =
            exp::installFaults(sys, "delay:rate=1,extra=500ns");
        AccelHandle &h = sys.attach(0);
        auto wl = mbJob(h);
        wl->program();
        h.start();
        EXPECT_EQ(h.wait(), accel::Status::kDone);
        EXPECT_TRUE(wl->verify());
        // Same answer, strictly later: delays stretch time but never
        // corrupt data.
        EXPECT_EQ(h.result(), baseResult);
        EXPECT_GT(sys.eq.now(), baseEnd);
        EXPECT_GT(inj->injections(), 0u);
    }
}

// ------------------------------------------------- forced IOMMU fault

TEST(IommuFaultTest, ForcedTranslationFaultReachesErrStatus)
{
    System sys(makeOptimusConfig("MB", 1));
    auto inj =
        exp::installFaults(sys, "iommu_fault:rate=1,count=1");

    AccelHandle &h = sys.attach(0);
    auto wl = mbJob(h);
    wl->program();
    h.start();
    EXPECT_EQ(h.wait(), accel::Status::kError);
    // The guest observes both the translation fault attribution and
    // the device's resulting error completion.
    EXPECT_NE(h.errorStatus() & accel::errst::kDmaFault, 0u);
    EXPECT_EQ(inj->injections(), 1u);
}

// ------------------------------------------------- IOTLB fault plane

TEST(IotlbFaultTest, PoisonedEntryDropsOnNextLookup)
{
    sim::EventQueue eq;
    sim::Telemetry t("sys");
    iommu::Iotlb tlb(512, mem::kPage4K, {&t.node("iotlb"), nullptr});

    mem::Iova iova(0x5000);
    tlb.insert(iova, mem::Hpa(0x12345000), true, 1, 0);
    EXPECT_TRUE(tlb.lookup(iova).has_value());

    EXPECT_TRUE(tlb.poison(iova));
    // The poisoned entry is silently dropped: the next access misses
    // and forces a fresh walk, exactly like a corrupted TLB line.
    EXPECT_FALSE(tlb.lookup(iova).has_value());
    EXPECT_EQ(tlb.poisonDrops(), 1u);

    tlb.insert(iova, mem::Hpa(0x12345000), true, 1, 0);
    EXPECT_TRUE(tlb.lookup(iova).has_value());

    // Poisoning an empty set reports false.
    EXPECT_FALSE(tlb.poison(mem::Iova(0xabc000)));
}

TEST(IotlbFaultTest, ConflictEvictAttributesVictimUnder2MPages)
{
    sim::EventQueue eq;
    sim::Telemetry t("sys");
    sim::TraceBus bus(eq);
    RecordingSink sink;
    bus.attach(&sink,
               sim::traceMask(sim::TraceKind::kIotlbEvict));
    iommu::Iotlb tlb(512, mem::kPage2M, {&t.node("iotlb"), &bus});

    // 2 MB pages index the 512 sets with IOVA bits 21-29.
    mem::Iova victim(5ULL << 21);
    mem::Iova aggressor((5ULL << 21) + (1ULL << 30));
    ASSERT_EQ(tlb.setIndex(victim), 5u);
    ASSERT_EQ(tlb.setIndex(aggressor), 5u);
    ASSERT_NE(victim.value(), aggressor.value());

    tlb.insert(victim, mem::Hpa(1ULL << 30), true, /*vm=*/1,
               /*proc=*/2);
    tlb.insert(aggressor, mem::Hpa(2ULL << 30), true, /*vm=*/7,
               /*proc=*/8);

    EXPECT_EQ(tlb.conflictEvictions(), 1u);
    ASSERT_EQ(sink.records.size(), 1u);
    const sim::TraceRecord &r = sink.records[0];
    EXPECT_EQ(r.kind, sim::TraceKind::kIotlbEvict);
    EXPECT_EQ(r.arg, 5u);
    // The record names whose entry was lost — the victim — not the
    // tenant whose walk displaced it. Per-tenant conflict attribution
    // is what makes the 128 MB slice-gap analysis possible.
    EXPECT_EQ(r.vm, 1);
    EXPECT_EQ(r.proc, 2);
}

// ------------------------------------------------------- wild DMA

TEST(WildDmaTest, CaughtByAuditorAndCounted)
{
    System sys(makeOptimusConfig("MB", 1));
    auto inj = exp::installFaults(sys, "wild_dma@0:at=10us");

    AccelHandle &h = sys.attach(0);
    exp::setupMembench(h, 1ULL << 20, accel::MembenchAccel::kRead,
                       3, /*gap=*/64);
    h.start();
    sys.run(sys.eq.now() + 100 * sim::kTickUs);

    EXPECT_EQ(inj->injections(), 1u);
    EXPECT_EQ(inj->wildDmasCaught(), 1u);
}

// ------------------------------------------------ zero perturbation

TEST(ZeroPerturbationTest, EmptyPlanInstallsNothing)
{
    System sys(makeOptimusConfig("MB", 1));
    EXPECT_EQ(exp::installFaults(sys, ""), nullptr);
}

TEST(ZeroPerturbationTest, InertRulesLeaveTimingIdentical)
{
    auto run = [](const char *plan) {
        System sys(makeOptimusConfig("MB", 1));
        auto inj = exp::installFaults(sys, plan);
        AccelHandle &h = sys.attach(0);
        auto wl = mbJob(h);
        wl->program();
        h.start();
        EXPECT_EQ(h.wait(), accel::Status::kDone);
        return std::pair<std::uint64_t, sim::Tick>{h.result(),
                                                   sys.eq.now()};
    };
    auto base = run("");
    // rate=0 attaches the DMA hook but never fires: the hook path
    // itself must cost zero simulated time and change nothing.
    auto hooked = run("drop:rate=0");
    EXPECT_EQ(hooked.first, base.first);
    EXPECT_EQ(hooked.second, base.second);
}

// ------------------------------------------------- wedge semantics

TEST(WedgeTest, WedgeFreezesUntilHardReset)
{
    System sys(makeOptimusConfig("MB", 1));
    AccelHandle &h = sys.attach(0);
    exp::setupMembench(h, 1ULL << 20, accel::MembenchAccel::kRead,
                       3, /*gap=*/64);
    h.start();
    sys.run(sys.eq.now() + 20 * sim::kTickUs);

    accel::Accelerator &dev = sys.platform.accel(0);
    dev.wedge();
    EXPECT_TRUE(dev.wedged());
    std::uint64_t frozen = dev.progress();
    sys.run(sys.eq.now() + 100 * sim::kTickUs);
    EXPECT_EQ(dev.progress(), frozen);

    dev.hardReset();
    EXPECT_FALSE(dev.wedged());
    EXPECT_EQ(dev.status(), accel::Status::kIdle);
}

TEST(WedgeTest, MmioWedgeReadsAllOnesAndDropsWrites)
{
    System sys(makeOptimusConfig("MB", 1));
    accel::Accelerator &dev = sys.platform.accel(0);
    dev.wedgeMmio();
    EXPECT_TRUE(dev.mmioWedged());
    EXPECT_EQ(dev.mmioRead(accel::reg::kStatus), ~0ULL);
    dev.mmioWrite(accel::reg::kCtrl, accel::ctrl::kStart);
    EXPECT_EQ(dev.status(), accel::Status::kIdle); // write dropped
    dev.hardReset();
    EXPECT_FALSE(dev.mmioWedged());
}

} // namespace

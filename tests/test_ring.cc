/**
 * @file
 * Doorbell-free command/completion ring tests (DESIGN.md §14):
 * guest-side queue mechanics against real process memory; the device
 * poller fetching again after a soft reset; the full
 * submit -> poll -> complete path matching the MMIO baseline's
 * results; preemption with a non-empty
 * ring; slot-to-slot migration (device checkpoint/restore) with
 * outstanding entries; fleet live-migration of a ring tenant; and
 * quarantine error delivery through the completion ring.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "accel/membench_accel.hh"
#include "accel/regs.hh"
#include "exp/builders.hh"
#include "fleet/fleet.hh"
#include "fpga/accel_port.hh"
#include "guest/process.hh"
#include "guest/vm.hh"
#include "hv/system.hh"
#include "hv/workloads.hh"
#include "mem/frame_allocator.hh"
#include "mem/host_memory.hh"
#include "ring/ring.hh"
#include "step_until.hh"
#include "svc/service_plane.hh"

using namespace optimus;

namespace {

// ---------------------------------------------------------------
// Guest-side queue views, no simulation: single-writer mechanics.
// ---------------------------------------------------------------

TEST(RingTest, QueueMechanicsAgainstProcessMemory)
{
    mem::HostMemory memory(1ULL << 30);
    mem::FrameAllocator frames(mem::Hpa(mem::kPage2M),
                               mem::Hpa(1ULL << 30));
    guest::Vm vm("vm0", memory, frames, 64ULL << 20);
    guest::Process &proc = vm.createProcess("proc");

    const std::uint32_t entries = 4;
    const std::uint64_t bytes = ring::ringBytes(entries);
    EXPECT_EQ(bytes, (4 + 2 * 4) * 64u);
    mem::Gva base = proc.mmapNoReserve(bytes);
    std::vector<std::uint8_t> zero(bytes, 0);
    proc.write(base, zero.data(), bytes);

    ring::SubmitQueue sq(proc, base, entries);
    ring::CompleteQueue cq(proc, base, entries);
    ASSERT_TRUE(sq.valid());
    ASSERT_TRUE(cq.valid());

    // Fill the submit ring: the 4th entry makes it full until the
    // (emulated) device acknowledges through submit.cons.
    for (std::uint64_t s = 0; s < entries; ++s) {
        ASSERT_FALSE(sq.full());
        EXPECT_EQ(sq.push(ring::op::kStart, s, s ^ 3), s);
    }
    sq.publish();
    EXPECT_TRUE(sq.full());
    EXPECT_EQ(
        proc.readValue<std::uint64_t>(
            base + ring::headerOff(ring::kSubmitProdLine)),
        4u);
    proc.writeValue<std::uint64_t>(
        base + ring::headerOff(ring::kSubmitConsLine), 2);
    EXPECT_FALSE(sq.full());

    // Device posts two completions; poll consumes them in order and
    // acknowledges through complete.cons.
    EXPECT_EQ(cq.pending(), 0u);
    for (std::uint64_t s = 0; s < 2; ++s) {
        ring::CompleteEntry ce;
        ce.seq = s;
        ce.status = 5;
        ce.result = 100 + s;
        proc.write(base + ring::completeSlotOff(entries, s), &ce,
                   sizeof(ce));
    }
    proc.writeValue<std::uint64_t>(
        base + ring::headerOff(ring::kCompleteProdLine), 2);
    EXPECT_EQ(cq.pending(), 2u);
    ring::CompleteEntry e;
    ASSERT_TRUE(cq.poll(e));
    EXPECT_EQ(e.seq, 0u);
    EXPECT_EQ(e.result, 100u);
    ASSERT_TRUE(cq.poll(e));
    EXPECT_EQ(e.seq, 1u);
    EXPECT_FALSE(cq.poll(e));
    EXPECT_EQ(
        proc.readValue<std::uint64_t>(
            base + ring::headerOff(ring::kCompleteConsLine)),
        2u);

    // resync() reloads the cursors from memory (the migration path).
    ring::SubmitQueue sq2(proc, base, entries);
    ring::CompleteQueue cq2(proc, base, entries);
    sq2.resync();
    cq2.resync();
    EXPECT_EQ(sq2.produced(), 4u);
    EXPECT_EQ(cq2.consumed(), 2u);
}

TEST(RingTest, CmdPathNames)
{
    EXPECT_STREQ(ring::cmdPathName(ring::CmdPath::kMmio), "mmio");
    EXPECT_STREQ(ring::cmdPathName(ring::CmdPath::kRing), "ring");
    EXPECT_EQ(ring::defaultEntries(1), 8u);
    EXPECT_EQ(ring::defaultEntries(8), 16u);
    EXPECT_EQ(ring::defaultEntries(12), 32u);
}

// ---------------------------------------------------------------
// The device poller alone, on a fabric that records requests and
// never answers: a soft reset leaves the poller able to fetch.
// ---------------------------------------------------------------

class RecordingFabric : public fpga::FabricPort
{
  public:
    void
    dmaRequest(ccip::DmaTxnPtr txn) override
    {
        requests.push_back(std::move(txn));
    }
    std::uint32_t injectIntervalCycles() const override { return 2; }

    std::vector<ccip::DmaTxnPtr> requests;
};

struct PollerRig
{
    static constexpr std::uint64_t kBase = 0x10000;
    static constexpr std::uint32_t kEntries = 8;

    sim::EventQueue eq;
    sim::PlatformParams params;
    RecordingFabric fabric;
    accel::MembenchAccel dev{eq, params, "mb"};

    PollerRig() { dev.attachFabric(&fabric); }

    void
    arm(std::uint64_t prod_seq)
    {
        ring::DeviceConfig cfg{mem::Gva(kBase), kEntries, {}};
        cfg.state.prodSeq = prod_seq;
        dev.armRing(cfg);
    }

    void
    softReset()
    {
        dev.mmioWrite(accel::reg::kCtrl, accel::ctrl::kSoftReset);
    }

    /** Requests that read submit slot @p seq. */
    std::size_t
    fetchesOf(std::uint64_t seq) const
    {
        const std::uint64_t at =
            kBase + ring::submitSlotOff(kEntries, seq);
        std::size_t n = 0;
        for (const ccip::DmaTxnPtr &t : fabric.requests)
            n += !t->isWrite && t->gva.value() == at;
        return n;
    }
};

TEST(RingTest, SoftResetWithPollPendingLeavesPollerFetching)
{
    PollerRig rig;
    rig.arm(0); // arms a poll that finds nothing published
    rig.softReset();
    rig.dev.ringNotify(1);
    rig.eq.runAll();
    EXPECT_EQ(rig.fetchesOf(0), 1u);
}

TEST(RingTest, SoftResetWithFetchInFlightLeavesPollerFetching)
{
    PollerRig rig;
    rig.arm(1);
    rig.eq.runAll();
    ASSERT_EQ(rig.fetchesOf(0), 1u); // in flight: never answered
    rig.softReset();                 // the port drops it
    rig.dev.ringNotify(1);
    rig.eq.runAll();
    EXPECT_EQ(rig.fetchesOf(0), 2u);
}

// ---------------------------------------------------------------
// Full stack: ring submissions complete like MMIO STARTs.
// ---------------------------------------------------------------

struct RingJob
{
    hv::System sys;
    hv::AccelHandle *handle;
    std::unique_ptr<hv::workload::Workload> wl;

    explicit RingJob(std::uint32_t slots = 1)
        : sys(hv::makeOptimusConfig("SHA", slots))
    {
        handle = &sys.attach(0, 1ULL << 30);
        wl = hv::workload::Workload::create("SHA", *handle,
                                            64 * 1024, 9);
        wl->program();
        handle->setupStateBuffer();
    }
};

TEST(RingTest, SubmitCompletesLikeMmio)
{
    // Reference: the same job driven by a trapped START.
    RingJob ref;
    ref.handle->start();
    ASSERT_EQ(ref.handle->wait(), accel::Status::kDone);
    ASSERT_TRUE(ref.wl->verify());
    const std::uint64_t ref_result = ref.handle->result();
    const std::uint64_t ref_progress = ref.handle->progress();

    RingJob rj;
    rj.handle->setupRing(8);
    ASSERT_TRUE(rj.handle->ringEnabled());
    const std::uint64_t traps_before = rj.sys.hv.traps();
    std::uint64_t seq = rj.handle->ringSubmit();
    ring::CompleteEntry e = rj.handle->ringWait(seq);
    EXPECT_EQ(static_cast<accel::Status>(e.status),
              accel::Status::kDone);
    EXPECT_EQ(e.result, ref_result);
    EXPECT_EQ(e.progress, ref_progress);
    EXPECT_EQ(e.err, 0u);
    EXPECT_TRUE(rj.wl->verify());
    // The whole submit/complete round trip trapped nothing.
    EXPECT_EQ(rj.sys.hv.traps(), traps_before);
    EXPECT_EQ(rj.sys.hv.ringSubmits(), 1u);
    // The guest sees the completion the instant the device posts it;
    // the hypervisor's mirror catches up at the drain doorbell.
    ASSERT_TRUE(test::stepUntil(
        rj.sys, [&]() { return rj.sys.hv.ringCompletes() >= 1; }));
    EXPECT_EQ(rj.sys.hv.ringCompletes(), 1u);
}

TEST(RingTest, BatchedSubmitsCompleteInOrder)
{
    RingJob rj;
    rj.handle->setupRing(8);
    const int kJobs = 12; // > entries: wraps and back-pressures
    std::vector<std::uint64_t> seqs;
    for (int i = 0; i < kJobs; ++i)
        seqs.push_back(rj.handle->ringSubmit());
    for (int i = 0; i < kJobs; ++i)
        EXPECT_EQ(seqs[static_cast<std::size_t>(i)],
                  static_cast<std::uint64_t>(i));
    std::uint64_t prev_result = 0;
    for (int i = 0; i < kJobs; ++i) {
        ring::CompleteEntry e =
            rj.handle->ringWait(static_cast<std::uint64_t>(i));
        EXPECT_EQ(static_cast<accel::Status>(e.status),
                  accel::Status::kDone);
        if (i > 0) {
            EXPECT_EQ(e.result, prev_result); // same job re-run
        }
        prev_result = e.result;
    }
    EXPECT_TRUE(rj.wl->verify());
    ASSERT_TRUE(test::stepUntil(rj.sys, [&]() {
        return rj.sys.hv.ringCompletes() >=
               static_cast<std::uint64_t>(kJobs);
    }));
    EXPECT_EQ(rj.sys.hv.ringCompletes(),
              static_cast<std::uint64_t>(kJobs));
}

TEST(RingTest, EachCompletionRunsTheHandlerWhereItLands)
{
    // The device's post runs the vaccel's completion handler through
    // the hypervisor, so a daemon sees each entry the moment it lands
    // instead of at the ring's drain doorbell: every handler call that
    // finds work finds exactly one new entry.
    RingJob rj;
    rj.handle->setupRing(8);
    std::vector<std::uint64_t> seqs;
    std::vector<std::size_t> per_call;
    rj.handle->vaccel().setCompletionHandler([&](accel::Status) {
        std::size_t n = 0;
        ring::CompleteEntry e;
        while (rj.handle->ringPoll(e)) {
            seqs.push_back(e.seq);
            ++n;
        }
        if (n != 0)
            per_call.push_back(n);
        if (seqs.size() == 4)
            rj.sys.eq.requestStop();
    });
    for (int i = 0; i < 4; ++i)
        rj.handle->ringSubmit();
    ASSERT_TRUE(
        rj.sys.eq.pumpUntil([&]() { return seqs.size() == 4; }));
    EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 1, 2, 3}));
    EXPECT_EQ(per_call, (std::vector<std::size_t>{1, 1, 1, 1}));
}

// ---------------------------------------------------------------
// Preemption with a non-empty ring: two ring tenants time-share one
// slot; slice expiry preempts mid-batch and every job still
// completes (and verifies) on resume.
// ---------------------------------------------------------------

TEST(RingTest, PreemptMidRingKeepsJobsCorrect)
{
    hv::System sys(hv::makeOptimusConfig("SHA", 1));
    sys.hv.setPolicy(0, hv::SchedPolicy::kRoundRobin,
                     100 * sim::kTickUs);
    svc::ServicePlane plane(sys);
    for (int i = 0; i < 2; ++i) {
        svc::TenantConfig cfg;
        cfg.name = "t" + std::to_string(i);
        cfg.app = "SHA";
        cfg.bytes = 512;
        cfg.seed = 61 + static_cast<std::uint64_t>(i);
        cfg.slot = 0;
        cfg.arrivals.kind = svc::ArrivalKind::kFixed;
        cfg.arrivals.ratePerSec = 80000.0;
        cfg.cmdPath = ring::CmdPath::kRing;
        cfg.batchMax = 8;
        plane.addTenant(cfg);
    }
    plane.run(2 * sim::kTickMs);

    // Both tenants sustained ~69% combined load each: the slot
    // switched hands repeatedly with entries still queued.
    EXPECT_GT(sys.hv.contextSwitches(), 10u);
    for (std::size_t i = 0; i < plane.numTenants(); ++i) {
        const svc::Tenant &t = plane.tenant(i);
        EXPECT_GT(t.completed(), 0u) << i;
        EXPECT_EQ(t.errors(), 0u) << i;
        EXPECT_EQ(t.verifyFailures(), 0u) << i;
        EXPECT_EQ(t.admitted(), t.completed() + t.dropped()) << i;
    }
    EXPECT_EQ(sys.hv.ringSubmits(), sys.hv.ringKicks());
}

// ---------------------------------------------------------------
// A ring tenant time-sharing a slot with MMIO tenants: a ring job
// that finishes while its preempt drains is saved as DONE, and the
// RESUME that restores it must post that completion through the
// ring. A plain doorbell instead would leave the job active forever
// and stall the tenant behind a full queue.
// ---------------------------------------------------------------

TEST(RingTest, RingTenantSharingSlotWithMmioTenantsCompletesAll)
{
    hv::System sys(hv::makeOptimusConfig("SHA", 1));
    sys.hv.setPolicy(0, hv::SchedPolicy::kRoundRobin,
                     100 * sim::kTickUs);
    svc::ServicePlane plane(sys);
    auto spec = [](const std::string &name, std::uint64_t seed) {
        svc::TenantConfig cfg;
        cfg.name = name;
        cfg.app = "SHA";
        cfg.bytes = 512;
        cfg.seed = seed;
        cfg.slot = 0;
        cfg.arrivals.kind = svc::ArrivalKind::kPoisson;
        cfg.arrivals.ratePerSec = 20000.0;
        return cfg;
    };
    for (std::uint64_t seed = 11; seed <= 13; ++seed)
        plane.addTenant(spec("m" + std::to_string(seed), seed));
    svc::TenantConfig rc = spec("ring", 99);
    rc.cmdPath = ring::CmdPath::kRing;
    rc.batchMax = 4;
    svc::Tenant &rt = plane.addTenant(rc);
    plane.run(50 * sim::kTickMs);

    EXPECT_GT(sys.hv.contextSwitches(), 100u);
    for (std::size_t i = 0; i < plane.numTenants(); ++i) {
        const svc::Tenant &t = plane.tenant(i);
        EXPECT_GT(t.arrivals(), 0u) << t.name();
        EXPECT_EQ(t.rejected(), 0u) << t.name();
        EXPECT_EQ(t.queueLength(), 0u) << t.name();
        EXPECT_EQ(t.errors(), 0u) << t.name();
        EXPECT_EQ(t.verifyFailures(), 0u) << t.name();
        EXPECT_EQ(t.completed(), t.arrivals()) << t.name();
    }
    EXPECT_GT(rt.completed(), 900u);
    EXPECT_TRUE(plane.idle());
}

// ---------------------------------------------------------------
// Migration with outstanding entries: the device checkpoint carries
// the poller cursors, the new slot re-arms, and the tail of the
// ring completes on the destination hardware.
// ---------------------------------------------------------------

TEST(RingTest, MigrateWithNonEmptyRing)
{
    RingJob rj(2);
    rj.handle->setupRing(16);
    const int kJobs = 10;
    for (int i = 0; i < kJobs; ++i)
        rj.handle->ringSubmit();
    // Jobs are ~500us each at 64 KiB; only the head of the ring can
    // have completed by now.
    ASSERT_LT(rj.sys.hv.ringCompletes(),
              static_cast<std::uint64_t>(kJobs));

    bool migrated = false;
    rj.sys.hv.migrate(rj.handle->vaccel(), 1, [&](bool ok) {
        migrated = ok;
        rj.sys.eq.requestStop();
    });
    ASSERT_TRUE(rj.sys.eq.pumpUntil([&]() { return migrated; }));
    EXPECT_EQ(rj.handle->vaccel().slot(), 1u);

    std::uint64_t result = 0;
    for (int i = 0; i < kJobs; ++i) {
        ring::CompleteEntry e =
            rj.handle->ringWait(static_cast<std::uint64_t>(i));
        EXPECT_EQ(static_cast<accel::Status>(e.status),
                  accel::Status::kDone)
            << "seq " << i;
        if (i == 0)
            result = e.result;
        else
            EXPECT_EQ(e.result, result) << "seq " << i;
    }
    EXPECT_TRUE(rj.wl->verify());
    // The destination accelerator did real work.
    EXPECT_GT(rj.sys.platform.accel(1).dma().readsIssued(), 0u);
}

// ---------------------------------------------------------------
// Fleet live-migration of a ring tenant: in-flight requests travel
// in the parcel, ring contents ride the window image, and nothing
// is lost across repeated forced moves.
// ---------------------------------------------------------------

TEST(RingTest, FleetMigrationConservesRingTenantWork)
{
    fleet::ClusterConfig cfg;
    cfg.nodes = 2;
    cfg.policy = fleet::Policy::kLeastLoaded;
    cfg.node = hv::makeOptimusConfig("SHA", 1);
    cfg.rebalanceInterval = 0; // forced moves only
    fleet::Cluster cl(cfg);

    fleet::FleetTenantSpec spec;
    spec.svc.name = "t0";
    spec.svc.app = "SHA";
    spec.svc.bytes = 512;
    spec.svc.seed = 71;
    spec.svc.slot = 0;
    spec.svc.arrivals.kind = svc::ArrivalKind::kPoisson;
    spec.svc.arrivals.ratePerSec = 60000.0;
    spec.svc.sloNs = 300000;
    spec.svc.cmdPath = ring::CmdPath::kRing;
    spec.svc.batchMax = 8;
    std::size_t t = cl.addTenant(spec);

    const sim::Tick period = 400 * sim::kTickUs;
    sim::Tick next = cl.now() + period;
    cl.setBarrierProbe([&cl, &next, t, period]() {
        if (cl.now() < next || cl.now() >= cl.horizon())
            return;
        if (cl.migrateTenant(t, 1 - cl.tenantNode(t)))
            next += period;
    });
    cl.run(2 * sim::kTickMs);

    EXPECT_GE(cl.migrationsCompleted(), 2u);
    EXPECT_EQ(cl.migrationsCompleted(), cl.migrationsStarted());
    EXPECT_GT(cl.fleetCompleted(), 0u);
    EXPECT_EQ(cl.fleetArrivals(),
              cl.fleetCompleted() + cl.fleetDropped());
}

// ---------------------------------------------------------------
// Quarantine: a hung ring tenant's outstanding entries complete as
// errors through the ring, carrying the watchdog's ERR_STATUS bits;
// the next kick clears the quarantine and the job re-runs clean.
// ---------------------------------------------------------------

TEST(RingTest, QuarantineDeliversErrorStatusThroughRing)
{
    hv::System sys(hv::makeOptimusConfig("SHA", 1));
    auto inj = exp::installFaults(
        sys, "hang@0:at=200us;watchdog:deadline=100us");
    hv::AccelHandle &h = sys.attach(0, 1ULL << 30);
    // A multi-millisecond job so the 200us hang lands mid-flight.
    auto wl = hv::workload::Workload::create("SHA", h, 1ULL << 20,
                                             13);
    wl->program();
    h.setupStateBuffer();
    h.setupRing(8);

    std::uint64_t seq = h.ringSubmit();
    ring::CompleteEntry e = h.ringWait(seq);
    EXPECT_EQ(static_cast<accel::Status>(e.status),
              accel::Status::kError);
    EXPECT_NE(e.err & (accel::errst::kWatchdog |
                       accel::errst::kForcedReset),
              0u);

    // Re-kick: quarantine clears, the fault is spent, and the same
    // ring serves a clean completion.
    std::uint64_t seq2 = h.ringSubmit();
    ring::CompleteEntry e2 = h.ringWait(seq2);
    EXPECT_EQ(static_cast<accel::Status>(e2.status),
              accel::Status::kDone);
    EXPECT_EQ(e2.err, 0u);
    EXPECT_TRUE(wl->verify());
}

TEST(RingTest, ServicePlaneRetriesQuarantinedRingTenant)
{
    hv::System sys(hv::makeOptimusConfig("SHA", 2));
    svc::ServicePlane plane(sys);
    svc::TenantConfig a;
    a.name = "a";
    a.app = "SHA";
    a.bytes = 512;
    a.seed = 5;
    a.slot = 0;
    a.arrivals.kind = svc::ArrivalKind::kFixed;
    a.arrivals.ratePerSec = 20000.0;
    a.sloNs = 50000;
    a.cmdPath = ring::CmdPath::kRing;
    a.batchMax = 4;
    svc::TenantConfig b = a;
    b.name = "b";
    b.seed = 6;
    b.slot = 1;
    svc::Tenant &ta = plane.addTenant(a);
    svc::Tenant &tb = plane.addTenant(b);
    auto inj = exp::installFaults(
        sys, "hang@0:at=200us;watchdog:deadline=100us");
    plane.run(2 * sim::kTickMs);

    // Tenant a observed ring-delivered errors and retried through
    // them; co-tenant b on its own slot stayed clean.
    EXPECT_GT(ta.errors(), 0u);
    EXPECT_GT(ta.completed(), 0u);
    EXPECT_EQ(ta.verifyFailures(), 0u);
    EXPECT_EQ(tb.errors(), 0u);
    EXPECT_EQ(tb.verifyFailures(), 0u);
    EXPECT_EQ(tb.admitted(), tb.completed() + tb.dropped());
}

} // namespace

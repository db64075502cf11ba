/**
 * @file
 * The OPTIMUS hypervisor.
 *
 * Mediated pass-through (Section 4): all control-plane (MMIO) guest
 * accesses trap here and are emulated or redirected; the data plane
 * (accelerator DMA) never touches the hypervisor. The hypervisor
 * owns page table slicing (per-virtual-accelerator IOVA slices with
 * the IOTLB conflict-mitigation gap), shadow paging (hypercall-based
 * page registration into the single IO page table), and preemptive
 * temporal multiplexing with round-robin, weighted, and priority
 * schedulers.
 *
 * The same object also drives a pass-through platform (the paper's
 * baseline): identity slicing, no traps on MMIO, vIOMMU-backed
 * identity IOVAs.
 */

#ifndef OPTIMUS_HV_OPTIMUS_HH
#define OPTIMUS_HV_OPTIMUS_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "accel/regs.hh"
#include "guest/process.hh"
#include "guest/vm.hh"
#include "hv/platform.hh"
#include "ring/ring.hh"

namespace optimus::hv {

class OptimusHv;

/** Temporal multiplexing policies (Section 5). */
enum class SchedPolicy
{
    kRoundRobin, ///< unweighted, equal time slices (default)
    kWeighted,   ///< time slice scaled by per-vaccel weight
    kPriority,   ///< highest-priority runnable job gets every slice
};

/**
 * The hypervisor-side context of one virtual accelerator: the cached
 * application registers replayed on every schedule, the state-buffer
 * pointer, the pending-start / saved-context flags, and the
 * guest-visible status and error bits. Together with the saved
 * device blob (which lives in the tenant's DMA window, written by
 * the preemption path) this is everything needed to re-host the
 * vaccel on another node's identical slot — the unit a fleet-level
 * migration moves (exportContext()/importContext()).
 */
struct VaccelContext
{
    std::array<std::uint64_t, accel::reg::kNumAppRegs> regCache{};
    std::vector<std::uint32_t> touchedRegs;
    std::uint64_t stateBufGva = 0;
    bool pendingStart = false;
    bool savedContext = false;
    accel::Status visibleStatus = accel::Status::kIdle;
    std::uint64_t cachedResult = 0;
    std::uint64_t cachedProgress = 0;
    std::uint64_t errStatus = 0;
    bool quarantined = false;
    /** Command-ring attachment (entries != 0 once setupRing() ran)
     *  and mirrored cursors (DESIGN.md §14): the guest's publish
     *  cursor and the device poller's fetch/post cursors, refreshed at
     *  every doorbell, which re-arm the poller exactly after
     *  preemption, slot migration and import. The ring contents
     *  themselves live in the tenant's DMA window and travel with the
     *  migration memory image. */
    ring::DeviceConfig ring;
};

/** One virtual accelerator, as exposed to a guest. */
class VirtualAccel
{
  public:
    using CompletionHandler = std::function<void(accel::Status)>;

    std::uint32_t id() const { return _id; }
    std::uint32_t slot() const { return _slot; }
    guest::Process &process() const { return *_proc; }

    /**
     * Attribution indices stamped into every DMA this vaccel's
     * tenant issues while scheduled: the owning VM's index among
     * created VMs, and the process's index within that VM.
     */
    std::uint16_t vmId() const { return _vmId; }
    std::uint16_t procId() const { return _procId; }

    /** Base of the guest-virtual DMA window (the 64 GB slice). */
    mem::Gva windowBase() const { return _windowBase; }
    std::uint64_t windowBytes() const { return _windowBytes; }
    /** IOVA base of this vaccel's page-table slice; co-tenants in
     *  one VM share a windowBase but never a slice. */
    std::uint64_t sliceIovaBase() const { return _sliceIovaBase; }

    /** The hypervisor-maintained job status the guest observes. */
    accel::Status visibleStatus() const { return _ctx.visibleStatus; }
    std::uint64_t cachedResult() const { return _ctx.cachedResult; }
    std::uint64_t cachedProgress() const { return _ctx.cachedProgress; }

    /** Guest-visible error bits (accel::errst); the ERR_STATUS
     *  register this tenant reads.  Cleared by START / SOFT_RESET. */
    std::uint64_t errorStatus() const { return _ctx.errStatus; }
    /** Whether the watchdog quarantined this vaccel. */
    bool quarantined() const { return _ctx.quarantined; }

    /** Invoked (like an interrupt) on job DONE / ERROR. A ring
     *  vaccel's handler instead runs where its completion entries
     *  land: at each device post and when the hypervisor's error
     *  completions land. */
    void setCompletionHandler(CompletionHandler h)
    {
        _completion = std::move(h);
    }
    /** The installed handler, so an observer can chain onto it. */
    const CompletionHandler &completionHandler() const
    {
        return _completion;
    }

    /** Set while a guest call blocks on this vaccel: the hypervisor
     *  then stops the running pump at each event that can end the
     *  wait (a doorbell, quarantine or forced reset, a ring post or
     *  error completion landing, the device's ring acknowledgement). */
    void setGuestWaiting(bool waiting) { _guestWaiting = waiting; }

    /** Whether this vaccel drives its jobs through a shared-memory
     *  command ring (OptimusHv::setupRing) instead of MMIO START. */
    bool ringEnabled() const { return _ctx.ring.entries != 0; }
    /** Hypervisor mirror of the guest's published submit cursor. */
    std::uint64_t ringProdSeq() const { return _ctx.ring.state.prodSeq; }
    /** Hypervisor mirror of the device's completion cursor. */
    std::uint64_t ringCompSeq() const { return _ctx.ring.state.compSeq; }

  private:
    friend class OptimusHv;

    /** Per-vaccel scheduler telemetry, grouped under the owning
     *  VM/process node (e.g. sys.vm0.app.vaccel1). */
    struct SchedStats
    {
        explicit SchedStats(sim::TelemetryNode *node)
            : slices(node, "slices",
                     "times scheduled onto the physical slot"),
              preempts(node, "preempts",
                       "times preempted off the physical slot"),
              occupancyTicks(node, "occupancy_ticks",
                             "accumulated physical-slot occupancy "
                             "(ticks)"),
              watchdogFires(node, "watchdog_fires",
                            "watchdog quarantines of this vaccel"),
              faults(node, "faults_observed",
                     "error bits raised into ERR_STATUS"),
              doorbells(node, "doorbell_traps",
                        "device doorbells delivered while this "
                        "vaccel held the slot"),
              ringSubmits(node, "ring_submits",
                          "command-ring publishes by this tenant"),
              ringCompletes(node, "ring_completes",
                            "completions delivered through this "
                            "tenant's ring")
        {
        }
        sim::Counter slices;
        sim::Counter preempts;
        sim::Counter occupancyTicks;
        sim::Counter watchdogFires;
        sim::Counter faults;
        sim::Counter doorbells;
        sim::Counter ringSubmits;
        sim::Counter ringCompletes;
    };

    std::uint32_t _id = 0;
    std::uint32_t _slot = 0;
    guest::Process *_proc = nullptr;
    std::uint16_t _vmId = sim::kNoOwner;
    std::uint16_t _procId = sim::kNoOwner;
    std::unique_ptr<SchedStats> _sched;
    mem::Gva _windowBase{};
    std::uint64_t _windowBytes = 0;
    /** IOVA base of this vaccel's slice (page table slicing). */
    std::uint64_t _sliceIovaBase = 0;

    /** Everything a migration moves; exportContext() hands out a
     *  copy and importContext() assigns one. */
    VaccelContext _ctx;
    /** Set by importContext() of a context that is not running: a
     *  device this vaccel holds never ran that job, so RESULT and
     *  PROGRESS come from _ctx until the vaccel next starts a job
     *  (START or a ring publish). See OptimusHv::resultFromContext. */
    bool _resultFromCtx = false;
    /** The forward-progress check (OptimusHv::setWatchdog) and the
     *  progress it last saw. */
    sim::PeriodicEvent _watchdog;
    std::uint64_t _wdLastProgress = 0;

    double _weight = 1.0;
    std::int32_t _priority = 0;

    CompletionHandler _completion;
    bool _guestWaiting = false;
};

/** The hypervisor. */
class OptimusHv
{
  public:
    explicit OptimusHv(Platform &platform);

    Platform &platform() { return _platform; }
    sim::EventQueue &eventq() { return _platform.eventq(); }

    /** Create a guest VM (KVM would do this in the original). */
    guest::Vm &createVm(std::string name,
                        std::uint64_t ram_bytes = 10ULL << 30);

    /**
     * Create (mdev-style) a virtual accelerator for @p proc on
     * physical slot @p slot. Reserves the process's DMA window,
     * assigns the IOVA slice, and schedules it if the slot is free.
     */
    VirtualAccel &createVirtualAccel(guest::Process &proc,
                                     std::uint32_t slot);

    // ------------------------------------------------ driver interface
    /**
     * Guest MMIO write to a virtual accelerator register (BAR0).
     * Trapped and emulated under OPTIMUS; direct under pass-through.
     */
    void mmioWrite(VirtualAccel &v, std::uint64_t reg,
                   std::uint64_t value,
                   std::function<void()> done = nullptr);

    /** Guest MMIO read from a virtual accelerator register. */
    void mmioRead(VirtualAccel &v, std::uint64_t reg,
                  std::function<void(std::uint64_t)> done);

    /**
     * Shadow-paging hypercall (BAR2 register in the original):
     * make one 2 MB guest page FPGA-accessible. Validates the
     * window, translates GVA -> GPA -> HPA, pins the frames, and
     * installs the IOVA -> HPA mapping(s) in the IO page table.
     * @param done receives false if the page was rejected.
     */
    void registerDmaPage(VirtualAccel &v, mem::Gva page_base,
                         std::function<void(bool)> done);

    /**
     * Migrate a virtual accelerator to a different physical slot
     * (Section 7.1: "OPTIMUS's virtual accelerators can
     * theoretically be migrated" — implemented here as an
     * extension). The destination must host the same accelerator
     * configuration. A running holder is preempted first, an idle or
     * finished one reset without a PREEMPT (release()). Only a running
     * job takes the destination's hardware: a vacant slot at once, an
     * occupied one at its next slice. @p done receives false if the
     * migration could not start (mismatched app types, a context
     * switch already in flight, or a running vaccel without a state
     * buffer), or if the preempt timed out: the source is then
     * force-reset and the vaccel stays, in kError with the
     * kForcedReset ERR_STATUS bit, on its slot.
     */
    void migrate(VirtualAccel &v, std::uint32_t dst_slot,
                 std::function<void(bool)> done);

    std::uint64_t migrations() const { return _migrations.value(); }

    /**
     * Detach @p v's job into a portable VaccelContext (cross-node
     * migration, fleet::Cluster). A scheduled, running vaccel is
     * first preempted off its slot through the standard preemption
     * path — drain, state save to the guest buffer, SAVED doorbell —
     * or, on timeout, force-reset with the kForcedReset ERR_STATUS
     * bit (the context then carries kError, importContext() posts its
     * ring error completions, and the service layer's retry path
     * re-runs the request on the destination). After a successful
     * export the source vaccel is neutralized (kIdle, no pending
     * start, no saved context) so the local scheduler never runs it
     * again; its slot is handed to the next tenant. @p done receives
     * false — retry later — if a context switch already holds the
     * slot, or if @p v is running without a state buffer.
     */
    void exportContext(
        VirtualAccel &v,
        std::function<void(bool, VaccelContext)> done);

    /**
     * Inverse of exportContext(): adopt @p ctx into @p v (a vaccel
     * of the identical slot/app layout on this hypervisor, whose
     * tenant's DMA window already holds the source's memory image —
     * including the saved device blob). A kRunning context is
     * scheduled exactly like a postponed START: immediately if the
     * slot is free, at the next slice otherwise; the replayed
     * registers + RESUME let the device reload the blob by DMA.
     */
    void importContext(VirtualAccel &v, const VaccelContext &ctx);

    // ------------------------- doorbell-free command/completion rings
    /**
     * Attach @p v to a submission/completion ring pair the guest laid
     * out at @p base in its pinned DMA window (ring::ringBytes(entries)
     * bytes, zeroed). One hypercall-priced setup call; afterwards the
     * guest submits jobs by writing entries and bumping the published
     * sequence word — no MMIO trap per job. The hypervisor keeps
     * mirrored cursors so scheduling, preemption, and migration stay
     * entirely under its control.
     */
    void setupRing(VirtualAccel &v, mem::Gva base,
                   std::uint32_t entries,
                   std::function<void()> done = nullptr);

    /**
     * Guest published submit entries up to (exclusive) @p prod_seq.
     * Models the coherence-visible sequence-word store: after the
     * publish propagation cost the hypervisor wakes the device poller
     * (if @p v holds its slot) or marks the tenant runnable (if not).
     * Replaces the START trap; like START it clears quarantine and
     * ERR_STATUS but — unlike START — preserves a saved context, so
     * publishing behind a preempted job just queues more work.
     */
    void ringPublish(VirtualAccel &v, std::uint64_t prod_seq,
                     std::function<void()> done = nullptr);

    std::uint64_t ringSubmits() const { return _ringSubmits.value(); }
    std::uint64_t ringCompletes() const
    {
        return _ringCompletes.value();
    }
    std::uint64_t ringKicks() const { return _ringKicks.value(); }

    // --------------------------------------------- watchdog & recovery
    /**
     * Arm a forward-progress watchdog on every running virtual
     * accelerator: if a vaccel that holds its slot makes no progress
     * within @p deadline ticks, it is quarantined (guest sees ERROR
     * plus the kWatchdog ERR_STATUS bit) and the slot is reset via
     * the VCU and handed to the next tenant.  0 disables (the
     * default — the fault-free path never schedules a check).
     */
    void setWatchdog(sim::Tick deadline);
    sim::Tick watchdogDeadline() const { return _wdDeadline; }

    std::uint64_t watchdogFires() const
    {
        return _watchdogFires.value();
    }
    std::uint64_t slotResets() const { return _slotResets.value(); }

    /** The vaccel owning the IOVA slice containing @p iova, if any. */
    VirtualAccel *vaccelForIova(mem::Iova iova);

    // ------------------------------------------------ scheduling policy
    void setPolicy(std::uint32_t slot, SchedPolicy policy,
                   sim::Tick base_slice = 0);
    void setWeight(VirtualAccel &v, double w) { v._weight = w; }
    void setPriority(VirtualAccel &v, std::int32_t p)
    {
        v._priority = p;
    }

    // ------------------------------------------------- instrumentation
    /** Untimed RESULT and PROGRESS peeks, for verification and
     *  measurement harnesses: what a trapped read issued now would
     *  return (the same source rule), without its trap or its time. */
    std::uint64_t peekResult(const VirtualAccel &v) const;
    std::uint64_t peekProgress(const VirtualAccel &v) const;
    accel::Status peekStatus(const VirtualAccel &v) const
    {
        return v._ctx.visibleStatus;
    }
    /** Whether @p v currently owns its physical accelerator. */
    bool isScheduled(const VirtualAccel &v) const;

    std::uint64_t contextSwitches() const
    {
        return _ctxSwitches.value();
    }
    std::uint64_t forcedResets() const { return _forcedResets.value(); }
    std::uint64_t traps() const { return _traps.value(); }
    std::uint64_t hypercalls() const { return _hypercalls.value(); }

    /** Cumulative time each vaccel has held its physical slot. */
    sim::Tick occupancy(const VirtualAccel &v) const;

  private:
    /** A physical slot's lifecycle (DESIGN.md §4). setState() is its
     *  one writer and holds the table of legal transitions. */
    enum class SlotState
    {
        kVacant,    ///< no holder
        kHeld,      ///< `scheduled` owns the device
        kCeding,    ///< cede(): the holder is preempted or force-reset
        kResetting, ///< resetHolder(): reset without a PREEMPT
        kAttaching, ///< attach() programs the incoming tenant
    };

    struct Slot
    {
        std::vector<std::unique_ptr<VirtualAccel>> vaccels;
        SchedPolicy policy = SchedPolicy::kRoundRobin;
        sim::Tick baseSlice = 0;
        std::uint32_t rrNext = 0;
        SlotState state = SlotState::kVacant;
        /** The holder; while a switch is in flight, the outgoing one
         *  (nullptr if the slot was vacant). */
        VirtualAccel *scheduled = nullptr;
        sim::Tick scheduledAt = 0;
        sim::PeriodicEvent sliceTimer;
        /** The pending cede's outcome (see cede()): taken exactly once,
         *  by the SAVED doorbell (true) or preemptTimer (false). */
        std::function<void(bool)> onCeded;
        sim::PeriodicEvent preemptTimer;

        /** A switch or reset owns the slot: no tenant may use the
         *  device, and migrations are refused. */
        bool midSwitch() const
        {
            return state != SlotState::kVacant && state != SlotState::kHeld;
        }
    };

    bool optimusMode() const
    {
        return _platform.config().mode == FabricMode::kOptimus;
    }

    /** Issue one MMIO to the device (absolute device offset). */
    void deviceMmio(bool is_write, std::uint64_t offset,
                    std::uint64_t value,
                    std::function<void(std::uint64_t)> done);

    /** Issue a sequence of register writes, then call @p done. */
    void deviceMmioSeq(
        std::vector<std::pair<std::uint64_t, std::uint64_t>> writes,
        std::function<void()> done);

    /**
     * Issue a VCU management sequence. The VCU's staged offset-table
     * registers are shared state, so concurrent programming (e.g.,
     * two virtual accelerators being scheduled at once) must be
     * serialized by the hypervisor.
     */
    void vcuSeq(
        std::vector<std::pair<std::uint64_t, std::uint64_t>> writes,
        std::function<void()> done);
    void drainVcuQueue();

    std::uint64_t accelRegOffset(std::uint32_t slot,
                                 std::uint64_t reg) const;

    void programOffsetEntry(VirtualAccel &v,
                            std::function<void()> done);
    void armWatchdog(VirtualAccel &v);
    void watchdogCheck(VirtualAccel &v);
    void quarantine(VirtualAccel &v);
    /** Reset a physical slot via the VCU and reschedule its tenants. */
    void resetSlot(std::uint32_t slot_idx);
    /** kHeld -> kResetting: account the holder's preemption, reset the
     *  device through the VCU, then vacate(). */
    void resetHolder(std::uint32_t slot_idx);
    /** Write @p slot_idx's bit to the VCU reset table, then @p done. */
    void vcuReset(std::uint32_t slot_idx, std::function<void()> done);
    /** Raise ERR_STATUS bits on @p v (guest-visible, per-tenant). */
    void noteError(VirtualAccel &v, std::uint64_t bits);
    /** Account a preemption: occupancy, counters, trace record. */
    void notePreempted(std::uint32_t slot_idx, VirtualAccel &v);
    /** The one writer of Slot::state; panics on an illegal
     *  transition. A slot that stops running a holder stops its
     *  slice timer. */
    void setState(Slot &slot, SlotState to);
    void scheduleVaccel(VirtualAccel &v, std::function<void()> done);
    /**
     * Bring @p v onto its slot, which the caller put in kAttaching:
     * reset and reprogram the device (scheduleVaccel()), mark the slot
     * held by @p v, restart the slice timer and @p v's watchdog, then
     * call @p done.
     */
    void attach(VirtualAccel &v, std::function<void()> done);
    /** Runnable @p v wants the hardware: claim its slot if vacant,
     *  else wait for the slice timer; arm its watchdog. */
    void wake(VirtualAccel &v);
    void armSliceTimer(std::uint32_t slot_idx);
    void sliceExpired(std::uint32_t slot_idx);
    VirtualAccel *pickNext(Slot &slot);
    void performSwitch(std::uint32_t slot_idx, VirtualAccel *to);
    /**
     * Take slot @p slot_idx away from its holder @p v (Section 4.2):
     * write PREEMPT, and on the SAVED doorbell cache v's result and
     * progress, mark its context saved and call @p then(true). A
     * running holder without a state buffer, or one that misses the
     * preempt timeout, is force-reset instead: kForcedReset, kError,
     * no saved context, a VCU reset, then @p then(false). With
     * @p ring_errors the forced reset first posts v's ring error
     * completions; without it importContext() posts them from v's
     * exported context. The slot stays kCeding with v scheduled until
     * @p then hands it on.
     */
    void cede(std::uint32_t slot_idx, VirtualAccel &v, bool ring_errors,
              std::function<void(bool)> then);
    /** Take the pending cede's outcome on @p slot_idx (see cede()). */
    void settleCede(std::uint32_t slot_idx, bool saved);
    /** Release @p slot_idx and hand it to the next eligible tenant. */
    void vacate(std::uint32_t slot_idx);
    /**
     * Detach @p v from the hardware, the half that migrate() and
     * exportContext() share. A running holder is ceded (see cede();
     * @p ring_errors as there); an idle or finished holder is reset
     * without a PREEMPT; a descheduled @p v is left alone. @p then
     * receives whether v's context survived (false: forced reset) and
     * runs before the slot is handed on. Returns false, without
     * calling @p then, while a switch holds the slot or when a running
     * holder has no state buffer.
     */
    bool release(VirtualAccel &v, bool ring_errors,
                 std::function<void(bool)> then);
    void onDoorbell(std::uint32_t slot_idx, accel::Accelerator &a);
    /** A ring job's completion landed in the holder's ring: forward it
     *  to the holder's completion handler. */
    void onRingPost(std::uint32_t slot_idx, accel::Accelerator &a);
    /** Whether @p v's RESULT and PROGRESS come from its context rather
     *  than the device: v does not hold the device, or holds it for an
     *  imported job that device never ran. The trapped read and both
     *  peeks follow this one rule. */
    bool resultFromContext(const VirtualAccel &v) const
    {
        return !isScheduled(v) || v._resultFromCtx;
    }
    sim::Tick sliceFor(const Slot &slot, const VirtualAccel &v) const;
    std::uint64_t sliceStride() const;
    /** Refresh @p v's ring mirrors from the device poller's cursors
     *  (at doorbells, while @p v still owns the device). */
    void syncRingFromDevice(VirtualAccel &v,
                            const accel::Accelerator &a);
    /** Deliver error completions for every submitted-but-uncompleted
     *  ring entry of @p v (quarantine, forced reset, migration
     *  timeout), carrying its ERR_STATUS bits; v's completion handler
     *  runs once they have landed in guest memory. */
    void postRingErrors(VirtualAccel &v);
    /** Account @p v's ring completions [@p from, @p to): counters
     *  and one kRingComplete trace record per entry. */
    void noteRingCompletes(VirtualAccel &v, std::uint64_t from,
                           std::uint64_t to);
    /** Stop the pump of a guest call blocked on @p v, if any. */
    void
    wakeGuest(const VirtualAccel &v)
    {
        if (v._guestWaiting)
            eventq().requestStop();
    }
    /** Emit one hypervisor trace record, attributed to @p v's VM and
     *  process when @p v is set; a no-op unless a sink wants @p kind. */
    void emitTrace(sim::TraceKind kind, const VirtualAccel *v,
                   std::uint64_t addr, std::uint64_t arg,
                   sim::Tick start = 0);

    Platform &_platform;
    std::vector<Slot> _slots;
    std::deque<std::pair<
        std::vector<std::pair<std::uint64_t, std::uint64_t>>,
        std::function<void()>>>
        _vcuQueue;
    bool _vcuBusy = false;
    std::vector<std::unique_ptr<guest::Vm>> _vms;
    std::uint32_t _nextVaccelId = 0;

    /** Every vaccel ever created, indexed by id (owner: its slot). */
    std::vector<VirtualAccel *> _byId;
    sim::Tick _wdDeadline = 0;

    /** This hypervisor's trace component id. */
    std::uint32_t _comp = 0;

    sim::Counter _traps;
    sim::Counter _hypercalls;
    sim::Counter _ctxSwitches;
    sim::Counter _forcedResets;
    sim::Counter _rejectedPages;
    sim::Counter _migrations;
    sim::Counter _watchdogFires;
    sim::Counter _slotResets;
    sim::Counter _ringSubmits;
    sim::Counter _ringCompletes;
    sim::Counter _ringKicks;
};

} // namespace optimus::hv

#endif // OPTIMUS_HV_OPTIMUS_HH

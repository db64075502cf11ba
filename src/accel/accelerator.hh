/**
 * @file
 * Base class for all benchmark accelerators.
 *
 * Implements the common register file, the DMA port attachment, and
 * the paper's preemption interface (Section 4.2): a preempt command
 * drains in-flight transactions, serializes the accelerator's
 * architectural state, DMAs it to a guest-provided buffer, and
 * reports SAVED; a resume command loads it back and continues.
 * Derived classes define the job itself and decide — as the paper's
 * complexity/performance trade-off intends — the minimal state worth
 * saving.
 */

#ifndef OPTIMUS_ACCEL_ACCELERATOR_HH
#define OPTIMUS_ACCEL_ACCELERATOR_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "accel/dma_port.hh"
#include "accel/regs.hh"
#include "accel/state_blob.hh"
#include "fpga/accel_port.hh"
#include "ring/ring.hh"
#include "sim/clocked.hh"
#include "sim/platform_params.hh"
#include "sim/stats.hh"

namespace optimus::accel {

/** Abstract benchmark accelerator with the common control protocol. */
class Accelerator : public fpga::AccelDevice, public sim::Clocked
{
  public:
    using Doorbell = std::function<void(Accelerator &)>;

    Accelerator(sim::EventQueue &eq,
                const sim::PlatformParams &params, std::string name,
                std::uint64_t freq_mhz, sim::Scope scope = {});

    const std::string &name() const { return _name; }

    /** Attach to a fabric (monitor port or pass-through). */
    void attachFabric(fpga::FabricPort *fabric) { _dma.attach(fabric); }

    DmaPort &dma() { return _dma; }

    Status status() const { return _status; }
    std::uint64_t result() const { return _result; }
    std::uint64_t progress() const { return _progress; }

    /**
     * Doorbell raised on DONE / SAVED / ERROR transitions — the
     * simulation's stand-in for the device interrupt the guest
     * driver would receive.
     */
    void setDoorbell(Doorbell d) { _doorbell = std::move(d); }

    /**
     * Hook run when a ring job's completion entry and the complete.prod
     * word it publishes have both landed in guest memory. Not an
     * interrupt: the hypervisor uses it to model the tenant's daemon
     * busy-polling its completion line, so it fires even with the
     * MMIO plane wedged.
     */
    void setRingPostHook(Doorbell h) { _ringPosted = std::move(h); }

    /** Hook run when the device's acknowledgement of a fetched submit
     *  entry (its submit.cons store) has landed: a guest blocked on a
     *  full ring may now publish again. */
    void setRingAckHook(Doorbell h) { _ringAcked = std::move(h); }

    /**
     * Pad the saved-state blob to @p n bytes; used by the temporal
     * multiplexing worst-case estimate (Section 6.6), which assumes
     * all resources an accelerator occupies must be saved.
     */
    void setSyntheticStateBytes(std::uint64_t n)
    {
        _syntheticStateBytes = n;
    }

    /** Total bytes the preemption state buffer must hold. */
    std::uint64_t stateSizeBytes() const;

    // ----- fpga::AccelDevice interface -----
    void dmaResponse(ccip::DmaTxnPtr txn) override;
    std::uint64_t mmioRead(std::uint64_t offset) override;
    void mmioWrite(std::uint64_t offset, std::uint64_t value) override;
    void hardReset() override;

    // ----- fault plane -----
    /**
     * Wedge the pipeline: everything in flight dies (as on a reset),
     * the status register freezes at its current value and commands
     * are ignored.  Only a VCU hardReset() recovers — the exact
     * failure the hypervisor watchdog exists to catch.
     */
    void wedge();

    /**
     * Wedge the MMIO register file: reads return all-ones, writes are
     * dropped, and the doorbell is suppressed so completions become
     * invisible to the host.  The job itself keeps running.
     */
    void wedgeMmio();

    bool wedged() const { return _wedged; }
    bool mmioWedged() const { return _mmioWedged; }

    // ----- shared-memory command/completion rings (DESIGN.md §14) -----
    /**
     * Attach the clock-gated ring poller to a submission/completion
     * ring pair in guest memory. The device thereafter fetches
     * commands by DMA (no MMIO trap) whenever it is quiescent and the
     * published sequence word is ahead of its cursor, and posts each
     * job's completion in place. The hypervisor calls this when it
     * schedules a ring-path vaccel onto this slot, passing its
     * mirrored cursors, so preemption and migration re-arm the poller
     * exactly where it stopped.
     */
    void armRing(const ring::DeviceConfig &cfg);

    /**
     * Publish notification from the hypervisor (the simulation's
     * stand-in for the coherence traffic that lands the guest's
     * sequence-word store in the device's polled line): advance the
     * device's view of submit.prod and wake the poller.
     */
    void ringNotify(std::uint64_t prod_seq);

    bool ringArmed() const { return _ringArmed; }
    const ring::DeviceState &ringState() const { return _ring.state; }

    std::uint64_t ringPolls() const { return _ringPolls.value(); }
    std::uint64_t ringFetches() const { return _ringFetches.value(); }
    std::uint64_t ringPosts() const { return _ringPosts.value(); }

  protected:
    /** Begin the configured job (app registers hold parameters). */
    virtual void onStart() = 0;

    /** Clear job state on a soft or hard reset. */
    virtual void onSoftReset() {}

    /**
     * Write the minimal architectural state needed to resume the job
     * into the preempt blob, after the framework's header (the
     * linked-list walker saves little more than the next node
     * pointer, per the paper's design discussion).
     */
    virtual void saveArchState(StateWriter &w) const = 0;

    /** Inverse of saveArchState(). The blob is guest memory: every
     *  count or fill read back is range-checked by @p r. */
    virtual void restoreArchState(StateReader &r) = 0;

    /** Continue execution after a restore that left us RUNNING. */
    virtual void onResumed() = 0;

    /** Issue what the job may issue now; the pacing wakeup armed by
     *  armPump() calls it. Overrides are final, so a model's own
     *  per-completion calls stay direct calls. */
    virtual void pump() {}

    /** Upper bound on saveArchState() bytes, for STATE_SIZE. */
    virtual std::uint64_t archStateCapacity() const { return 256; }

    // ----- helpers for derived classes -----
    bool running() const { return _status == Status::kRunning; }

    std::uint64_t
    appReg(std::uint32_t idx) const
    {
        return _appRegs[idx];
    }

    void setProgress(std::uint64_t p) { _progress = p; }
    void bumpProgress(std::uint64_t n = 1) { _progress += n; }

    /** Complete the job successfully. */
    void finish(std::uint64_t result);

    /** Complete the job with an error (e.g., DMA fault observed). */
    void fail();

    /**
     * Schedule @p fn after @p cycles of this accelerator's clock;
     * dropped if the accelerator is reset in the meantime. The
     * callable is captured by value into the event, so small
     * closures stay allocation-free.
     */
    template <typename F>
    void
    scheduleGuarded(std::uint64_t cycles, F fn)
    {
        std::uint64_t epoch = _dma.epoch();
        scheduleCycles(cycles, [this, epoch, fn = std::move(fn)]() {
            if (epoch == _dma.epoch())
                fn();
        });
    }

    /** Wake pump() at tick @p when (the earlier arm wins); a reset
     *  or wedge cancels it. */
    void armPump(sim::Tick when) { _pumpEvent.schedule(when); }
    void cancelPump() { _pumpEvent.cancel(); }

  private:
    /** Kill everything the job has in flight (reset and wedge): the
     *  port drops its requests, its epoch bump drops what
     *  scheduleGuarded() queued and the armed wakeups are
     *  cancelled. */
    void dropInFlight();
    /** Drop the job (soft and hard reset): dropInFlight() and return
     *  to kIdle. */
    void clearJob();
    /** Report a finished job (kDone/kError already in _status): post
     *  it through the ring it came from, else raise the doorbell. */
    void completeJob();
    void command(std::uint64_t bits);
    void beginPreempt();
    void beginResume();
    void transferStateBlob(bool save,
                           std::vector<std::uint8_t> blob,
                           std::function<void(std::vector<
                               std::uint8_t>)> done);
    void raiseDoorbell();
    /** Arm one clock-gated poll of the submission ring. */
    void ringWake();
    /** Poll body: fetch the next submit entry if quiescent. */
    void ringPoll();
    /** Post the in-flight job's completion into the ring (entry
     *  line, then the complete.prod line), then resume polling or —
     *  with the ring drained — raise the completion doorbell. */
    void ringPostCompletion();

    std::string _name;
    DmaPort _dma;
    Doorbell _doorbell;
    Doorbell _ringPosted;
    Doorbell _ringAcked;

    Status _status = Status::kIdle;
    std::uint64_t _result = 0;
    std::uint64_t _progress = 0;
    std::uint64_t _stateBuf = 0;
    std::array<std::uint64_t, reg::kNumAppRegs> _appRegs{};
    bool _doneDuringSave = false;
    /** A PREEMPT that landed while a RESUME was still restoring; it
     *  runs the moment the restore completes. */
    bool _preemptAfterRestore = false;
    bool _wedged = false;
    bool _mmioWedged = false;
    std::uint64_t _syntheticStateBytes = 0;
    /** Pacing wakeup (armPump()); unarmed while the job is not
     *  waiting out an initiation interval. */
    sim::MemberEvent<Accelerator, &Accelerator::pump> _pumpEvent;

    sim::Tick _stateLineGap;
    std::uint32_t _ringPollCycles;

    bool _ringArmed = false;
    ring::DeviceConfig _ring{};
    bool _ringFetchInFlight = false;
    /** The pending poll (ringWake()); unarmed while none is due. */
    sim::MemberEvent<Accelerator, &Accelerator::ringPoll> _ringPollEvent;

    sim::Counter _preempts;
    sim::Counter _resumes;
    sim::Counter _jobs;
    sim::Counter _ringPolls;
    sim::Counter _ringFetches;
    sim::Counter _ringPosts;
};

} // namespace optimus::accel

#endif // OPTIMUS_ACCEL_ACCELERATOR_HH

/**
 * @file
 * The simplified userspace API the paper provides to application
 * developers (Section 4.3): connect to a virtual accelerator, manage
 * DMA memory, program it through MMIO, start jobs, and wait for
 * completion.
 *
 * The methods are synchronous from the caller's point of view: each
 * pumps the event queue (EventQueue::pumpUntil) until its own (timed)
 * operation completes, so guest "software time" is naturally charged
 * to the simulation clock while other agents keep running. Each call
 * names the event that completes it, which requests the pump's stop,
 * so the call returns with now() at that event's tick — on a fleet
 * node, the tick of every node, since the nodes share one queue. A
 * pumping call made from inside an event, or from a fleet's barrier
 * work, is fatal; only the peeks and the direct memory accessors are
 * safe there.
 */

#ifndef OPTIMUS_HV_GUEST_API_HH
#define OPTIMUS_HV_GUEST_API_HH

#include <cstdint>
#include <functional>

#include "hv/dma_heap.hh"
#include "hv/optimus.hh"
#include "ring/ring.hh"

namespace optimus::hv {

/** Userspace handle to one virtual accelerator. */
class AccelHandle
{
  public:
    /** "Connect" to a virtual accelerator. Synchronous calls pump
     *  @p hv's event queue, so a fleet node's pump also runs its
     *  peers. */
    AccelHandle(OptimusHv &hv, VirtualAccel &v);

    VirtualAccel &vaccel() { return _v; }
    guest::Process &process() { return _v.process(); }
    DmaHeap &heap() { return _heap; }

    /** Allocate DMA-able memory in this accelerator's window. */
    mem::Gva dmaAlloc(std::uint64_t bytes, std::uint64_t align = 64);
    void dmaFree(mem::Gva addr) { _heap.free(addr); }

    /** CPU writes/reads of DMA memory (shared-memory view). */
    void
    memWrite(mem::Gva gva, const void *data, std::uint64_t len)
    {
        process().write(gva, data, len);
    }
    void
    memRead(mem::Gva gva, void *data, std::uint64_t len)
    {
        process().read(gva, data, len);
    }

    /** Program a device register (trapped under OPTIMUS). */
    void mmioWrite(std::uint64_t reg, std::uint64_t value);
    std::uint64_t mmioRead(std::uint64_t reg);

    void
    writeAppReg(std::uint32_t idx, std::uint64_t value)
    {
        mmioWrite(accel::reg::appReg(idx), value);
    }

    /**
     * Allocate and install the preemption state buffer (reads
     * STATE_SIZE, allocates, writes STATE_BUF). Call after the
     * application registers are programmed.
     */
    void setupStateBuffer();

    /** Issue the START command. */
    void start() { mmioWrite(accel::reg::kCtrl, accel::ctrl::kStart); }

    /** Issue a soft reset. */
    void
    reset()
    {
        mmioWrite(accel::reg::kCtrl, accel::ctrl::kSoftReset);
    }

    /** Block (pumping simulated time) until DONE or ERROR. */
    accel::Status wait();

    std::uint64_t result() { return mmioRead(accel::reg::kResult); }
    std::uint64_t progress()
    {
        return mmioRead(accel::reg::kProgress);
    }

    /** What result() / progress() would return, read without the trap
     *  and without advancing simulated time (OptimusHv::peekResult).
     *  Verification uses these, so it may run inside an event. */
    std::uint64_t peekResult() const { return _hv.peekResult(_v); }
    std::uint64_t peekProgress() const { return _hv.peekProgress(_v); }

    /** Read the guest-visible ERR_STATUS register (accel::errst
     *  bits); how a VM observes its own faults after wait() returns
     *  kError. */
    std::uint64_t errorStatus()
    {
        return mmioRead(accel::reg::kErrStatus);
    }

    // ----- doorbell-free command/completion rings (DESIGN.md §14) --
    /**
     * Switch this handle to the ring command path: allocate and zero
     * a ring pair of @p entries slots in the DMA window, register it
     * with the hypervisor (one hypercall — the last trap-priced call
     * on this path), and build the producer/consumer views. Program
     * application registers and the state buffer first; they are
     * replayed per slot exactly as on the MMIO path.
     */
    void setupRing(std::uint32_t entries);

    bool ringEnabled() const { return _submitQ.valid(); }
    ring::SubmitQueue &submitQueue() { return _submitQ; }
    ring::CompleteQueue &completeQueue() { return _completeQ; }

    /**
     * Submit one job through the ring: write the entry, publish the
     * sequence word, and let the hypervisor's kick propagate it to
     * the device poller. No MMIO trap. Blocks (pumping) only while
     * the ring is full. @return the entry's sequence number.
     */
    std::uint64_t ringSubmit();

    /** Consume the next completion if one is posted (non-blocking). */
    bool ringPoll(ring::CompleteEntry &out);

    /** Pump simulated time until completion @p seq posts, consuming
     *  (and discarding) everything before it. */
    ring::CompleteEntry ringWait(std::uint64_t seq);

    /** Reload queue cursors from ring memory — after a migration
     *  image overwrote the ring area. */
    void ringResync();

  private:
    /** Run the event loop until @p pred holds; fatal if the queue
     *  drains first. @p pred is evaluated up front and at each stop
     *  request (EventQueue::requestStop), so every caller names the
     *  event that requests its stop. */
    void pumpUntil(const std::function<bool()> &pred);
    /** pumpUntil() with this vaccel marked as waited on, so the
     *  hypervisor stops the pump at each device event that can
     *  satisfy @p pred (VirtualAccel::setGuestWaiting). */
    void waitOnDevice(const std::function<bool()> &pred);
    /** A synchronous call's completion: set @p done and stop the
     *  running pump right after this event. */
    void finish(bool &done);

    OptimusHv &_hv;
    VirtualAccel &_v;
    DmaHeap _heap;
    ring::SubmitQueue _submitQ;
    ring::CompleteQueue _completeQ;
};

} // namespace optimus::hv

#endif // OPTIMUS_HV_GUEST_API_HH

/**
 * @file
 * The accelerator-side DMA engine.
 *
 * Wraps the fabric attachment point with injection pacing (the fabric
 * dictates the minimum cycles between requests), an outstanding-
 * request window (how deeply the accelerator pipelines memory), and
 * latency accounting. Addresses are guest-virtual: translation is the
 * fabric's business (auditors under OPTIMUS, the vIOMMU-backed
 * identity under pass-through).
 */

#ifndef OPTIMUS_ACCEL_DMA_PORT_HH
#define OPTIMUS_ACCEL_DMA_PORT_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "ccip/packet.hh"
#include "fpga/accel_port.hh"
#include "mem/address.hh"
#include "sim/clocked.hh"
#include "sim/stats.hh"

namespace optimus::accel {

/** DMA master port of one accelerator. */
class DmaPort : public sim::Clocked
{
  public:
    /** Per-request completion handler. Inline-sized: together with
     *  the port's epoch wrapper it still fits a DmaTxn::onComplete
     *  without heap allocation. */
    using Completion =
        sim::InlineFunction<void(ccip::DmaTxn &),
                            sim::kCompletionCaptureBytes>;

    DmaPort(sim::EventQueue &eq, std::uint64_t freq_mhz,
            std::string name, sim::Scope scope = {});

    void attach(fpga::FabricPort *fabric) { _fabric = fabric; }

    void setMaxOutstanding(std::uint32_t n) { _maxOutstanding = n; }
    std::uint32_t maxOutstanding() const { return _maxOutstanding; }

    /** Default virtual channel for issued requests. */
    void setChannel(ccip::VChannel vc) { _vc = vc; }
    ccip::VChannel channel() const { return _vc; }

    /** Issue a read of @p bytes (<= 64) at @p gva. */
    void read(mem::Gva gva, std::uint32_t bytes, Completion cb);

    /** Issue a write of @p bytes from @p data at @p gva. */
    void write(mem::Gva gva, const void *data, std::uint32_t bytes,
               Completion cb);

    std::uint32_t outstanding() const { return _outstanding; }

    /** Requests accepted but not yet injected into the fabric. */
    std::uint32_t
    queued() const
    {
        return static_cast<std::uint32_t>(_pending.size());
    }

    /** In-flight plus queued; accelerators flow-control on this. */
    std::uint32_t inFlight() const { return _outstanding + queued(); }

    bool idle() const { return _outstanding == 0 && _pending.empty(); }

    /** One-shot callback when the port next becomes idle. */
    void notifyWhenDrained(std::function<void()> cb);

    /**
     * Abandon all pending and in-flight requests (hard reset), the
     * drain callback and the armed issue wakeup. Responses already
     * traveling are dropped on arrival.
     */
    void reset();

    /** Bumped by reset(): what a job scheduled before it is stale. */
    std::uint64_t epoch() const { return _epoch; }

    std::uint64_t readsIssued() const { return _reads.value(); }
    std::uint64_t writesIssued() const { return _writes.value(); }
    std::uint64_t errors() const { return _errors.value(); }

  private:
    void enqueue(ccip::DmaTxnPtr txn, Completion cb);
    void tryIssue();
    void onResponse(std::uint64_t epoch, ccip::DmaTxn &txn,
                    const Completion &cb);

    fpga::FabricPort *_fabric = nullptr;
    std::uint32_t _maxOutstanding = 16;
    ccip::VChannel _vc = ccip::VChannel::kAuto;

    std::deque<ccip::DmaTxnPtr> _pending;
    std::uint32_t _outstanding = 0;
    sim::Tick _nextIssueAllowed = 0;
    /** Recyclable issue event; unarmed while the port has nothing to
     *  inject (clock-gated). reset() cancels it. */
    sim::MemberEvent<DmaPort, &DmaPort::tryIssue> _issueEvent;
    /** Bumped by reset(): completions of requests enqueued before it
     *  are dropped on arrival. */
    std::uint64_t _epoch = 0;
    std::uint64_t _nextId = 1;
    std::function<void()> _drainCb;

    sim::TraceBus *_trace = nullptr;
    std::uint32_t _comp = 0;

    sim::Counter _reads;
    sim::Counter _writes;
    sim::Counter _errors;
    /** Round-trip latency (ns): correlates fabric-level tail latency
     *  with the service-plane's request tails. */
    sim::Histogram _latencyHist;
};

} // namespace optimus::accel

#endif // OPTIMUS_ACCEL_DMA_PORT_HH

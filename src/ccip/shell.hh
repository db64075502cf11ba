/**
 * @file
 * The FPGA shell: the manufacturer-provided IO interface.
 *
 * The shell terminates the package interconnect (one UPI link, two
 * PCIe links) and presents the CCI-P style request/response interface
 * to whatever is loaded onto the fabric — either a single
 * pass-through accelerator or the OPTIMUS hardware monitor with its
 * accelerators behind it.
 *
 * A DMA makes two legs across the package, each one link crossing
 * scheduled straight on the node's event queue. The request leg
 * reserves the chosen link's to-host wire and lands one propagation
 * latency after it departs; the host side (IOMMU translation, then
 * the memory controller and DRAM) services it, and the completion
 * leg reserves the to-FPGA wire and delivers the response to the AFU.
 * A crossing is a link latency inside one shared-memory package, not
 * a synchronization point (DESIGN.md §12).
 */

#ifndef OPTIMUS_CCIP_SHELL_HH
#define OPTIMUS_CCIP_SHELL_HH

#include <cstdint>
#include <functional>

#include "ccip/channel_selector.hh"
#include "ccip/link.hh"
#include "ccip/packet.hh"
#include "iommu/iommu.hh"
#include "mem/host_memory.hh"
#include "mem/memory_controller.hh"
#include "sim/event_queue.hh"
#include "sim/platform_params.hh"
#include "sim/stats.hh"

namespace optimus::ccip {

/** The FPGA shell and its three package links. */
class Shell
{
  public:
    using DmaSink = std::function<void(DmaTxnPtr)>;
    using MmioSink = std::function<void(MmioOp)>;
    /** Invoked on the AFU side when a response that faulted in
     *  translation arrives back from the host side. */
    using XlatFaultSink = std::function<void(const DmaTxn &)>;

    /**
     * Fault-plane hook consulted once per completed DMA response
     * (before delivery to the AFU).  kDrop models a lost CCI-P
     * response: the shell re-issues the transaction after a bounded
     * backoff, and marks it errored when retries are exhausted.
     * kDelay models a transient link stall of *extra ticks.  Null by
     * default; the fault-free path pays one pointer test.
     */
    class DmaFaultHook
    {
      public:
        enum class Action { kNone, kDrop, kDelay };
        virtual ~DmaFaultHook() = default;
        virtual Action onDmaResponse(const DmaTxn &txn,
                                     sim::Tick *extra) = 0;
    };

    void setFaultHook(DmaFaultHook *hook) { _faultHook = hook; }

    /**
     * @param eq The node's event queue; @p memctl and @p iommu must
     *        be wired onto it.
     */
    Shell(sim::EventQueue &eq, const sim::PlatformParams &params,
          mem::HostMemory &memory, mem::MemoryController &memctl,
          iommu::Iommu &iommu, sim::Scope scope = {});

    /**
     * Submit a DMA from the AFU side. The transaction's iova and tag
     * must already be final (the hardware monitor's auditors do this;
     * pass-through uses identity).
     */
    void fromAfu(DmaTxnPtr txn);

    /** Where completed DMA responses are delivered on the AFU side. */
    void setResponseSink(DmaSink sink) { _responseSink = std::move(sink); }

    /** Submit an MMIO operation from the host/hypervisor side. */
    void mmioFromHost(MmioOp op);

    /** Where MMIO operations are delivered on the AFU side. */
    void setMmioSink(MmioSink sink) { _mmioSink = std::move(sink); }

    /** Where translation faults surface on the AFU side (the
     *  hypervisor quarantines the owning vaccel from here). */
    void
    setTranslationFaultSink(XlatFaultSink sink)
    {
        _xlatFaultSink = std::move(sink);
    }

    iommu::Iommu &iommu() { return _iommu; }
    Link &upi() { return _upi; }
    Link &pcie0() { return _pcie0; }
    Link &pcie1() { return _pcie1; }

    std::uint64_t dmaReads() const { return _dmaReads.value(); }
    std::uint64_t dmaWrites() const { return _dmaWrites.value(); }
    std::uint64_t dmaRetries() const { return _dmaRetries.value(); }
    std::uint64_t dmaDropped() const { return _dmaDropped.value(); }

  private:
    void issue(DmaTxnPtr txn);
    /** Host side: translate, admit to memory, schedule the return
     *  leg's arrival at the front. */
    void onHostRequest(DmaTxnPtr txn);
    /** The return leg, one crossing after the host side finished:
     *  access memory at @p hpa, then reserve the return wire. */
    void onHostResponse(DmaTxnPtr txn, mem::Hpa hpa);
    void respond(DmaTxnPtr txn);
    void deliver(DmaTxnPtr txn);

    Link &
    linkOf(std::uint8_t idx)
    {
        return idx == 0 ? _upi : (idx == 1 ? _pcie0 : _pcie1);
    }

    /** Small header/ack size accompanying each transfer. */
    static constexpr std::uint64_t kCtrlBytes = 16;

    sim::EventQueue &_eq; ///< the node's queue
    mem::HostMemory &_memory;
    mem::MemoryController &_memctl;
    iommu::Iommu &_iommu;

    Link _upi;
    Link _pcie0;
    Link _pcie1;
    ChannelSelector _selector;
    /** The fastest link's propagation latency: how long a completion
     *  takes to reach the front, which then reserves its link's
     *  return wire from the moment the host side finished. */
    sim::Tick _returnLatency;
    sim::Tick _mmioLinkLatency;
    std::uint32_t _dmaMaxRetries;
    sim::Tick _dmaRetryBackoff;

    DmaSink _responseSink;
    MmioSink _mmioSink;
    XlatFaultSink _xlatFaultSink;
    DmaFaultHook *_faultHook = nullptr;

    sim::TraceBus *_trace = nullptr;
    std::uint32_t _comp = 0;

    sim::Counter _dmaReads;
    sim::Counter _dmaWrites;
    sim::Counter _dmaFaults;
    sim::Counter _dmaRetries;
    sim::Counter _dmaDropped;
    /** Telemetry shell.bridge.*: DMAs serviced host-side, and those
     *  bounced there by an IOMMU translation fault. */
    sim::Counter _hostRequests;
    sim::Counter _hostFaults;
};

} // namespace optimus::ccip

#endif // OPTIMUS_CCIP_SHELL_HH

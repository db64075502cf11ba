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
 * The shell is split across the package boundary the way the real
 * hardware is: the **front** (link selection, serialization, retry
 * and fault hooks, MMIO, response delivery) lives on the FPGA side,
 * while translation and the memory access live in a HostBridge on the
 * host side. The two halves talk only through a pair of typed
 * sim::Channels whose static latency is the link propagation
 * latency. Both halves share the node's one simulation domain; the
 * channels still use deferred (barrier) delivery, which fixes the
 * epoch schedule every recorded fingerprint depends on (DESIGN.md
 * §12).
 */

#ifndef OPTIMUS_CCIP_SHELL_HH
#define OPTIMUS_CCIP_SHELL_HH

#include <cstdint>
#include <functional>

#include "ccip/channel_selector.hh"
#include "ccip/host_bridge.hh"
#include "ccip/link.hh"
#include "ccip/packet.hh"
#include "iommu/iommu.hh"
#include "mem/host_memory.hh"
#include "mem/memory_controller.hh"
#include "sim/domain.hh"
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
     *  translation arrives back from the host bridge. */
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
     * @param domain The node's simulation domain; @p memctl and
     *        @p iommu must be wired onto that domain's queue.
     */
    Shell(sim::DomainSet &domains, sim::DomainId domain,
          const sim::PlatformParams &params, mem::HostMemory &memory,
          mem::MemoryController &memctl, iommu::Iommu &iommu,
          sim::Scope scope = {});

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
    HostBridge &bridge() { return _bridge; }

    /** The package-crossing channels (boundary traffic gauges). */
    const sim::ChannelBase &toHostChannel() const { return _toHost; }
    const sim::ChannelBase &toFpgaChannel() const { return _toFpga; }

    std::uint64_t dmaReads() const { return _dmaReads.value(); }
    std::uint64_t dmaWrites() const { return _dmaWrites.value(); }
    std::uint64_t dmaFaults() const { return _dmaFaults.value(); }
    std::uint64_t dmaRetries() const { return _dmaRetries.value(); }
    std::uint64_t dmaDropped() const { return _dmaDropped.value(); }

  private:
    void issue(DmaTxnPtr txn);
    void onHostResponse(DmaTxnPtr txn);
    void respond(DmaTxnPtr txn);
    void deliver(DmaTxnPtr txn);

    Link &
    linkOf(std::uint8_t idx)
    {
        return idx == 0 ? _upi : (idx == 1 ? _pcie0 : _pcie1);
    }

    /** Small header/ack size accompanying each transfer. */
    static constexpr std::uint64_t kCtrlBytes = 16;

    sim::EventQueue &_eq; ///< the node domain's queue
    iommu::Iommu &_iommu;

    Link _upi;
    Link _pcie0;
    Link _pcie1;
    ChannelSelector _selector;
    /** Static channel latency = min link propagation latency; a
     *  slower link's surplus rides in the send's extra delay. */
    sim::Tick _chanLatency;
    sim::Tick _mmioLinkLatency;
    std::uint32_t _dmaMaxRetries;
    sim::Tick _dmaRetryBackoff;

    /** AFU -> host requests and host -> AFU completions. Deferred
     *  delivery (see file comment). */
    sim::Channel<DmaTxnPtr> _toHost;
    sim::Channel<DmaTxnPtr> _toFpga;
    HostBridge _bridge;

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
};

} // namespace optimus::ccip

#endif // OPTIMUS_CCIP_SHELL_HH

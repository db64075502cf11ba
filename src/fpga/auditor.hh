/**
 * @file
 * Per-accelerator auditors (Section 4.1).
 *
 * The multiplexer tree never routes by address; instead, each physical
 * accelerator has an auditor that (a) rewrites outgoing DMA guest
 * virtual addresses into IO virtual addresses using the offset table —
 * this is the hardware half of page table slicing — and stamps the
 * accelerator ID tag, and (b) filters incoming packets, accepting only
 * MMIOs that fall in its accelerator's 4 KB page and DMA responses
 * carrying its own tag. Everything else is discarded.
 */

#ifndef OPTIMUS_FPGA_AUDITOR_HH
#define OPTIMUS_FPGA_AUDITOR_HH

#include <cstdint>
#include <deque>

#include "ccip/packet.hh"
#include "fpga/accel_port.hh"
#include "sim/clocked.hh"
#include "sim/stats.hh"

namespace optimus::fpga {

/** One entry of the VCU's offset table, as seen by an auditor. */
struct OffsetEntry
{
    bool valid = false;
    /** Guest-virtual base g of the window [g, g + window). */
    std::uint64_t gvaBase = 0;
    /** iova = gva + offset (offset = slice base - g, mod 2^64). */
    std::uint64_t offset = 0;
    /** Window size (the slice size p). */
    std::uint64_t window = 0;
};

/** The auditor guarding one physical accelerator. */
class Auditor : public sim::Clocked
{
  public:
    /** Inline-stored hooks (see inline_function.hh): fired per DMA
     *  packet with word-sized captures, so they skip std::function's
     *  double indirection and never allocate. */
    using Forward = sim::InlineFunction<void(ccip::DmaTxnPtr),
                                        sim::kCompletionCaptureBytes>;
    using SpaceCheck =
        sim::InlineFunction<bool(), sim::kCompletionCaptureBytes>;
    using Notify =
        sim::InlineFunction<void(), sim::kCompletionCaptureBytes>;

    Auditor(sim::EventQueue &eq, std::uint64_t freq_mhz,
            ccip::AccelTag tag, std::uint32_t latency_cycles,
            sim::Scope scope = {});

    ccip::AccelTag tag() const { return _tag; }

    /**
     * The tenant currently scheduled behind this auditor; every
     * outgoing DMA is stamped with it (per-VM attribution).  The
     * scheduler updates this on every context switch; pass
     * sim::kNoOwner to mark the slot idle.
     */
    void
    setOwner(std::uint16_t vm, std::uint16_t proc)
    {
        _vm = vm;
        _proc = proc;
    }
    std::uint16_t ownerVm() const { return _vm; }
    std::uint16_t ownerProc() const { return _proc; }

    /** The offset-table entry this auditor translates with. */
    void setOffsetEntry(const OffsetEntry &e) { _entry = e; }
    const OffsetEntry &offsetEntry() const { return _entry; }

    /** Attach the accelerator living behind this auditor. */
    void setDevice(AccelDevice *dev) { _device = dev; }
    AccelDevice *device() const { return _device; }

    /** Where upstream (tree-bound) packets are forwarded. */
    void setUpstream(Forward f) { _upstream = std::move(f); }

    /**
     * Ready/valid flow control toward the tree leaf: @p has_space
     * queries the leaf's input credit and @p reserve claims it. When
     * unset the upstream is assumed always ready (unit tests).
     */
    void
    setUpstreamFlowControl(SpaceCheck has_space, Notify reserve)
    {
        _upstreamHasSpace = std::move(has_space);
        _upstreamReserve = std::move(reserve);
    }

    /** Credit-return notification from the tree leaf. */
    void pumpUpstream();

    /**
     * A DMA request from the accelerator: translate GVA -> IOVA,
     * bounds-check against the window, stamp the tag, forward. A
     * request outside the window is rejected with an error response —
     * the isolation guarantee of page table slicing.
     */
    void dmaFromAccel(ccip::DmaTxnPtr txn);

    /**
     * A downstream packet (broadcast by the tree). Accepted and
     * handed to the accelerator only if its tag matches; silently
     * discarded otherwise (lazy routing).
     */
    void deliverDown(ccip::DmaTxnPtr txn);

    /**
     * An MMIO broadcast down the tree; @p device_offset is the
     * absolute offset within the whole device MMIO space, and
     * @p my_base the base of this accelerator's page. Accepts only
     * in-range accesses.
     * @retval true the op was accepted and completed.
     */
    bool mmioDown(ccip::MmioOp &op, std::uint64_t my_base);

    std::uint64_t rejectedDmas() const { return _rejected.value(); }
    std::uint64_t discardedResponses() const
    {
        return _discarded.value();
    }

  private:
    ccip::AccelTag _tag;
    std::uint32_t _latencyCycles;
    std::uint16_t _vm = sim::kNoOwner;
    std::uint16_t _proc = sim::kNoOwner;
    OffsetEntry _entry;
    AccelDevice *_device = nullptr;
    Forward _upstream;
    SpaceCheck _upstreamHasSpace;
    Notify _upstreamReserve;

    void pumpStep();

    /** Translated packets waiting for a leaf credit (bounded by the
     *  accelerator's outstanding-request window). */
    std::deque<ccip::DmaTxnPtr> _outQueue;
    /** Recyclable pump event; unarmed whenever the auditor is idle
     *  or waiting on a leaf credit (clock-gated). */
    sim::MemberEvent<Auditor, &Auditor::pumpStep> _pumpEvent;
    sim::Tick _busyUntil = 0;

    sim::Counter _rejected;
    sim::Counter _discarded;
    sim::Counter _forwarded;
};

} // namespace optimus::fpga

#endif // OPTIMUS_FPGA_AUDITOR_HH

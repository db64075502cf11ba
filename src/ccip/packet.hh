/**
 * @file
 * CCI-P style transaction types.
 *
 * The shell presents a request/response memory interface to the FPGA
 * logic (the paper's "FPGA Interface", Section 5): an accelerator
 * sends a request packet and later receives a response packet, and may
 * keep many requests in flight to saturate bandwidth. Requests carry a
 * virtual-channel hint selecting UPI, one of the PCIe links, or
 * automatic selection.
 */

#ifndef OPTIMUS_CCIP_PACKET_HH
#define OPTIMUS_CCIP_PACKET_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>

#include "mem/address.hh"
#include "sim/inline_function.hh"
#include "sim/pool_alloc.hh"
#include "sim/trace_bus.hh"
#include "sim/types.hh"

namespace optimus::ccip {

/** Virtual channel selector (CCI-P: VA / VL0 / VH0 / VH1). */
enum class VChannel : std::uint8_t
{
    kAuto,  ///< VA: shell chooses per packet (throughput-optimized)
    kUpi,   ///< VL0: the UPI link
    kPcie0, ///< VH0
    kPcie1, ///< VH1
};

/** Identifies which physical accelerator issued a DMA. */
using AccelTag = std::uint16_t;

/** One cache-line DMA transaction flowing through the platform. */
struct DmaTxn
{
    std::uint64_t id = 0;
    bool isWrite = false;
    /** Address as issued by the accelerator (guest virtual). */
    mem::Gva gva{};
    /** Address after auditor offsetting (what the IOMMU sees). */
    mem::Iova iova{};
    /** Accelerator ID tag stamped by the auditor (Section 4.1). */
    AccelTag tag = 0;
    /** Owning tenant, stamped by the auditor alongside the tag so
     *  every downstream counter and trace record knows whose DMA
     *  this is (sim::kNoOwner until stamped). */
    std::uint16_t vm = sim::kNoOwner;
    std::uint16_t proc = sim::kNoOwner;
    /** Payload size; at most one cache line. */
    std::uint32_t bytes = sim::kCacheLineBytes;
    VChannel vc = VChannel::kAuto;
    /** Set when the transaction faulted or was discarded. */
    bool error = false;
    /** Set alongside error when the cause was an IOMMU translation
     *  fault (stamped host-side, consumed by the shell front). */
    bool transFault = false;
    /** Times the shell re-issued this txn after an injected drop. */
    std::uint8_t retries = 0;
    /** Physical link index (0 = UPI, 1 = PCIe0, 2 = PCIe1) stamped by
     *  the shell front at issue so the response leg reserves the same
     *  link after crossing back from the host side. */
    std::uint8_t link = 0;

    /** Write payload on the way up; read data on the way back. */
    std::array<std::uint8_t, sim::kCacheLineBytes> data{};

    /** Issue timestamp, for latency accounting. */
    sim::Tick issuedAt = 0;

    /** Invoked at the accelerator when the response arrives. Inline
     *  capacity covers a completion handler plus a small wrapping
     *  context (DmaPort wraps a 56 B completion object with a frame
     *  and an epoch: 72 B), so the DMA hot path never allocates. */
    sim::InlineFunction<void(DmaTxn &), 80> onComplete;
};

/** Ends a transaction: destroys it and gives its block back to the
 *  free list of the context it came from. */
struct DmaTxnRecycler
{
    sim::PoolArena *arena = nullptr;

    void
    operator()(DmaTxn *txn) const noexcept
    {
        txn->~DmaTxn();
        arena->give(txn);
    }
};

/** The one owner of a DMA: moved hop to hop, from the port that
 *  issues it to the accelerator that takes its response. */
using DmaTxnPtr = std::unique_ptr<DmaTxn, DmaTxnRecycler>;

/** A fresh transaction in a block from @p arena, its context's. */
inline DmaTxnPtr
makeTxn(sim::PoolArena &arena)
{
    return DmaTxnPtr(::new (arena.take(sizeof(DmaTxn))) DmaTxn(),
                     DmaTxnRecycler{&arena});
}

/** One MMIO operation on the FPGA's control plane. */
struct MmioOp
{
    bool isWrite = false;
    /** Byte offset within the device MMIO space. */
    std::uint64_t offset = 0;
    /** Value to write, or the value read back. */
    std::uint64_t value = 0;
    /** Invoked with the read value (or the written value as an ack). */
    std::function<void(std::uint64_t)> onComplete;
};

} // namespace optimus::ccip

#endif // OPTIMUS_CCIP_PACKET_HH

/**
 * @file
 * The IO memory management unit.
 *
 * HARP implements the IOMMU as soft IP in the FPGA shell; on every
 * DMA the shell consults the IOTLB, and on a miss a hardware walker
 * must fetch the IO page table entry from host memory across the
 * package interconnect — which is why IOTLB misses are so expensive
 * (Figs 5 and 6). There is a single IO page table for the whole FPGA;
 * partitioning it among virtual accelerators is exactly what page
 * table slicing does.
 */

#ifndef OPTIMUS_IOMMU_IOMMU_HH
#define OPTIMUS_IOMMU_IOMMU_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "iommu/iotlb.hh"
#include "mem/address.hh"
#include "mem/page_table.hh"
#include "sim/event_queue.hh"
#include "sim/platform_params.hh"
#include "sim/stats.hh"

namespace optimus::iommu {

/** Result of a timed translation. */
struct TranslationResult
{
    bool fault = false;
    mem::Hpa hpa{};
};

/** The soft IOMMU with its single IO page table and IOTLB. */
class Iommu
{
  public:
    /** Completion of a timed translation; inline-sized so the shell's
     *  per-DMA continuation never heap-allocates. */
    using TranslateCallback =
        sim::InlineFunction<void(TranslationResult),
                            sim::kCompletionCaptureBytes>;
    /** Invoked on an IO page fault (address, was it a write). */
    using FaultHandler = std::function<void(mem::Iova, bool)>;

    /**
     * Fault-plane hook consulted at the head of translate(): when it
     * returns true the translation takes the synchronous fault path
     * exactly as a permission violation would.  Null by default.
     */
    class TranslationFaultHook
    {
      public:
        virtual ~TranslationFaultHook() = default;
        virtual bool forceFault(mem::Iova iova, bool is_write,
                                std::uint16_t vm,
                                std::uint16_t proc) = 0;
    };

    Iommu(sim::EventQueue &eq, const sim::PlatformParams &params,
          sim::Scope scope = {});

    /** The single IO page table (hypervisor-managed). */
    mem::IoPageTable &pageTable() { return *_iopt; }
    const mem::IoPageTable &pageTable() const { return *_iopt; }

    Iotlb &iotlb() { return _iotlb; }

    /** Translation granularity currently configured. */
    std::uint64_t pageBytes() const { return _pageBytes; }

    /**
     * Reconfigure the DMA page size (2 MiB default, 4 KiB for the
     * huge-page comparison experiments). Discards all mappings.
     */
    void setPageBytes(std::uint64_t page_bytes);

    /**
     * Timed translation of @p iova. The callback fires when the
     * translation (and any page walk) completes.  @p vm / @p proc
     * attribute IOTLB trace records to the requesting tenant.
     */
    void translate(mem::Iova iova, bool is_write,
                   TranslateCallback cb,
                   std::uint16_t vm = sim::kNoOwner,
                   std::uint16_t proc = sim::kNoOwner);

    void setFaultHandler(FaultHandler h) { _faultHandler = std::move(h); }
    void setTranslationFaultHook(TranslationFaultHook *hook)
    {
        _injectHook = hook;
    }

    std::uint64_t walks() const { return _walks.value(); }
    std::uint64_t faults() const { return _faults.value(); }
    std::uint64_t coalescedWalks() const
    {
        return _coalesced.value();
    }

  private:
    struct PendingWalk
    {
        mem::Iova iova;
        bool isWrite;
        TranslateCallback cb;
        std::uint16_t vm = sim::kNoOwner;
        std::uint16_t proc = sim::kNoOwner;
    };

    void startWalk(mem::Iova page);
    void finishWalk(mem::Iova page);
    void fault(const PendingWalk &w);

    sim::EventQueue &_eq;
    sim::Tick _hitLatency;
    sim::Tick _walkLatency;
    std::uint32_t _maxConcurrentWalks;
    std::uint32_t _activeWalks = 0;
    /** Pages with a walk queued or in flight; concurrent misses to
     *  the same page coalesce onto one walk (MSHR-style). Looked up
     *  by page only, never iterated: _walkQueue keeps the walk order
     *  and each vector its waiters' arrival order. */
    std::unordered_map<std::uint64_t, std::vector<PendingWalk>>
        _walkWaiters;
    std::deque<mem::Iova> _walkQueue;

    std::uint64_t _pageBytes;
    std::unique_ptr<mem::IoPageTable> _iopt;
    /** Kept so setPageBytes() can rebuild the IOTLB registered on
     *  the same telemetry node (counters move, never dangle). */
    sim::Scope _iotlbScope;
    Iotlb _iotlb;

    FaultHandler _faultHandler;
    TranslationFaultHook *_injectHook = nullptr;
    sim::Counter _walks;
    sim::Counter _faults;
    sim::Counter _coalesced;
};

} // namespace optimus::iommu

#endif // OPTIMUS_IOMMU_IOMMU_HH

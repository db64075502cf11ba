/**
 * @file
 * Host physical frame allocator.
 *
 * The hypervisor uses this to hand physical frames to guests (EPT
 * backing) and to pin DMA pages registered through the shadow-paging
 * hypercall. Pinning is tracked explicitly because the paper's design
 * pins only FPGA-accessible pages, once the guest allocates them.
 */

#ifndef OPTIMUS_MEM_FRAME_ALLOCATOR_HH
#define OPTIMUS_MEM_FRAME_ALLOCATOR_HH

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "mem/address.hh"

namespace optimus::mem {

/** Bump-with-free-list allocator over host physical frames. */
class FrameAllocator
{
  public:
    /**
     * @param base First allocatable physical address.
     * @param limit One past the last allocatable physical address.
     * @param frame_bytes Allocation granularity.
     */
    FrameAllocator(Hpa base, Hpa limit,
                   std::uint64_t frame_bytes = kPage4K);

    /** Allocate one frame. Throws via fatal() when exhausted. */
    Hpa allocate();

    /** Allocate @p n physically contiguous frames. */
    Hpa allocateContiguous(std::uint64_t n);

    /** Return a frame to the pool. */
    void free(Hpa frame);

    /** Pin a frame (must currently be allocated). */
    void pin(Hpa frame);

    /** Unpin a previously pinned frame. */
    void unpin(Hpa frame);

    bool isPinned(Hpa frame) const
    {
        return _pinned.count(frame.value()) != 0;
    }

    std::uint64_t framesAllocated() const { return _allocated; }
    std::uint64_t framesPinned() const { return _pinned.size(); }

  private:
    std::uint64_t _frameBytes;
    Hpa _base;
    Hpa _limit;
    Hpa _next;
    std::uint64_t _allocated = 0;
    std::vector<std::uint64_t> _freeList;
    std::unordered_set<std::uint64_t> _pinned;
};

} // namespace optimus::mem

#endif // OPTIMUS_MEM_FRAME_ALLOCATOR_HH

/**
 * @file
 * Functional backing store for host DRAM.
 *
 * Both the CPU side (guest processes, the hypervisor) and the FPGA
 * side (accelerator DMAs after IOMMU translation) read and write the
 * same HostMemory object — this is what makes the platform
 * "shared-memory" and lets tests verify consistency of the two views.
 */

#ifndef OPTIMUS_MEM_HOST_MEMORY_HH
#define OPTIMUS_MEM_HOST_MEMORY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "mem/address.hh"

namespace optimus::mem {

/**
 * Sparse, frame-granular physical memory.
 *
 * Frames are allocated lazily on first touch so a simulated 188 GB
 * server costs only what the workloads actually write.
 */
class HostMemory
{
  public:
    /** @param capacity_bytes Total physical capacity to emulate. */
    explicit HostMemory(std::uint64_t capacity_bytes = 188ULL << 30)
        : _capacity(capacity_bytes)
    {
    }

    HostMemory(const HostMemory &) = delete;
    HostMemory &operator=(const HostMemory &) = delete;

    std::uint64_t capacity() const { return _capacity; }

    /** Copy @p len bytes from physical memory into @p dst. */
    void read(Hpa addr, void *dst, std::uint64_t len) const;

    /** Copy @p len bytes from @p src into physical memory. */
    void write(Hpa addr, const void *src, std::uint64_t len);

    /** Convenience typed accessors. */
    template <typename T>
    T
    readValue(Hpa addr) const
    {
        T v{};
        read(addr, &v, sizeof(T));
        return v;
    }

    template <typename T>
    void
    writeValue(Hpa addr, const T &v)
    {
        write(addr, &v, sizeof(T));
    }

    /** Number of frames materialized so far (for tests). */
    std::size_t framesTouched() const { return _frames.size(); }

    /**
     * Scratch mode: discard writes to frames that were never
     * written before, instead of materializing them. Used by
     * bandwidth benchmarks whose simulated working sets exceed the
     * simulation host's RAM; functional contents are then undefined
     * for those regions (reads return zero). Off by default.
     */
    void setScratchWrites(bool on) { _scratchWrites = on; }

  private:
    static constexpr std::uint64_t kFrameBytes = kPage4K;
    using Frame = std::array<std::uint8_t, kFrameBytes>;

    Frame &frameFor(std::uint64_t frame_number);
    const Frame *frameForConst(std::uint64_t frame_number) const;

    std::uint64_t _capacity;
    bool _scratchWrites = false;
    mutable std::unordered_map<std::uint64_t, std::unique_ptr<Frame>>
        _frames;
};

} // namespace optimus::mem

#endif // OPTIMUS_MEM_HOST_MEMORY_HH

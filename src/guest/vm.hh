/**
 * @file
 * A guest virtual machine: its extended page table (GPA -> HPA) and
 * physical-memory provisioning. Guest RAM is backed by a contiguous
 * host-physical region (as pinned, device-assigned guests commonly
 * are), which keeps 2 MB guest pages physically contiguous — a
 * prerequisite for huge-page IOPT entries.
 */

#ifndef OPTIMUS_GUEST_VM_HH
#define OPTIMUS_GUEST_VM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/address.hh"
#include "mem/frame_allocator.hh"
#include "mem/host_memory.hh"
#include "mem/page_table.hh"

namespace optimus::guest {

class Process;

/** One guest VM. */
class Vm
{
  public:
    /**
     * @param ram_bytes Guest RAM (default 10 GiB, the paper's guest
     *        allocation), taken contiguously from @p frames.
     */
    Vm(std::string name, mem::HostMemory &memory,
       mem::FrameAllocator &frames,
       std::uint64_t ram_bytes = 10ULL << 30);

    const std::string &name() const { return _name; }
    mem::HostMemory &hostMemory() { return _memory; }

    /** Translate a guest-physical address (fatal on bad GPA). */
    mem::Hpa toHpa(mem::Gpa gpa) const;

    const mem::ExtendedPageTable &ept() const { return _ept; }

    /** Allocate @p bytes of guest-physical memory (page aligned). */
    mem::Gpa allocGpa(std::uint64_t bytes,
                      std::uint64_t align = mem::kPage4K);

    /** Create a process in this VM. */
    Process &createProcess(std::string name);

    const std::vector<std::unique_ptr<Process>> &processes() const
    {
        return _processes;
    }

  private:
    std::string _name;
    mem::HostMemory &_memory;
    std::uint64_t _ramBytes;
    mem::Hpa _hpaBase;
    mem::ExtendedPageTable _ept{mem::kPage2M};
    std::uint64_t _nextGpa = mem::kPage4K; // keep GPA 0 unmapped
    std::vector<std::unique_ptr<Process>> _processes;
};

} // namespace optimus::guest

#endif // OPTIMUS_GUEST_VM_HH

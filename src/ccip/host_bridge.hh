/**
 * @file
 * The host-side terminus of the package interconnect.
 *
 * Everything that physically lives in the CPU package — the IOMMU
 * walk, the memory-controller queue, DRAM itself — executes here.
 * DMAs arrive from the FPGA shell front over the shell's to-host
 * channel and their completions leave over the to-FPGA channel;
 * those channels are the *only* coupling between the two sides of
 * the package, and their deferred delivery fixes the node's epoch
 * schedule (DESIGN.md §12).
 */

#ifndef OPTIMUS_CCIP_HOST_BRIDGE_HH
#define OPTIMUS_CCIP_HOST_BRIDGE_HH

#include "ccip/packet.hh"
#include "iommu/iommu.hh"
#include "mem/host_memory.hh"
#include "mem/memory_controller.hh"
#include "sim/domain.hh"
#include "sim/stats.hh"

namespace optimus::ccip {

/** Host-side DMA service: translate, access memory, send back. */
class HostBridge
{
  public:
    HostBridge(mem::HostMemory &memory, mem::MemoryController &memctl,
               iommu::Iommu &iommu, sim::Channel<DmaTxnPtr> &to_fpga,
               sim::Scope scope = {});

    /**
     * Service one DMA arriving from the FPGA side. Runs entirely on
     * the host side; the completion (or the fault, marked with
     * error + transFault) goes back through the to-FPGA channel.
     */
    void onRequest(DmaTxnPtr txn);

    std::uint64_t requests() const { return _requests.value(); }
    std::uint64_t faults() const { return _faults.value(); }

  private:
    mem::HostMemory &_memory;
    mem::MemoryController &_memctl;
    iommu::Iommu &_iommu;
    sim::Channel<DmaTxnPtr> &_toFpga;

    sim::Counter _requests;
    sim::Counter _faults;
};

} // namespace optimus::ccip

#endif // OPTIMUS_CCIP_HOST_BRIDGE_HH

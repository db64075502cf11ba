/**
 * @file
 * Platform assembly: host memory, the package interconnect, the soft
 * IOMMU, the shell, and either the OPTIMUS hardware monitor with up
 * to eight physical accelerators or a single pass-through
 * accelerator (the paper's baseline). The whole platform runs on one
 * event queue, its node's; a crossing of the package interconnect is
 * a link latency scheduled on that queue (DESIGN.md §12).
 */

#ifndef OPTIMUS_HV_PLATFORM_HH
#define OPTIMUS_HV_PLATFORM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "accel/accelerator.hh"
#include "accel/registry.hh"
#include "ccip/shell.hh"
#include "fpga/hardware_monitor.hh"
#include "iommu/iommu.hh"
#include "mem/frame_allocator.hh"
#include "mem/host_memory.hh"
#include "mem/memory_controller.hh"
#include "sim/event_queue.hh"
#include "sim/platform_params.hh"
#include "sim/stats.hh"
#include "sim/telemetry.hh"
#include "sim/trace_bus.hh"

namespace optimus::hv {

/** How the FPGA fabric is configured. */
enum class FabricMode
{
    kOptimus,     ///< hardware monitor + N accelerators
    kPassthrough, ///< one accelerator wired straight to the shell
};

/** Full platform configuration. */
struct PlatformConfig
{
    sim::PlatformParams params = sim::PlatformParams::harpDefaults();
    FabricMode mode = FabricMode::kOptimus;
    /** Accelerator app name per physical slot (Table 1 names). */
    std::vector<std::string> apps;
    /** Multiplexer tree arity (binary by default). */
    std::uint32_t treeArity = 2;
};

/** The simulated machine. */
class Platform
{
  public:
    /**
     * Every timed component is wired onto the observability spine at
     * construction: @p telemetry supplies the stat tree nodes
     * (mem/iommu/shell/fabric/accelN.APP) and @p trace the shared
     * trace bus, so no component's stats can be silently dropped.
     * The whole platform runs on @p eq, its node's event queue.
     */
    Platform(sim::EventQueue &eq, PlatformConfig config,
             sim::Telemetry &telemetry, sim::TraceBus &trace);

    sim::EventQueue &eventq() { return _eq; }
    const PlatformConfig &config() const { return _config; }
    const sim::PlatformParams &params() const { return _config.params; }

    mem::HostMemory &memory() { return _memory; }
    mem::FrameAllocator &frames() { return _frames; }
    iommu::Iommu &iommu() { return _iommu; }
    ccip::Shell &shell() { return _shell; }

    /** Non-null only in OPTIMUS mode. */
    fpga::HardwareMonitor *monitor() { return _monitor.get(); }

    std::uint32_t numAccels() const
    {
        return static_cast<std::uint32_t>(_accels.size());
    }
    accel::Accelerator &accel(std::uint32_t idx)
    {
        return *_accels[idx];
    }

    /** The fabric attachment point for slot @p idx. */
    fpga::FabricPort &fabric(std::uint32_t idx);

    sim::Telemetry &telemetry() { return _telemetry; }
    sim::TraceBus &trace() { return _trace; }

  private:
    /** Direct shell attachment used by the pass-through baseline. */
    class PassthroughFabric : public fpga::FabricPort
    {
      public:
        explicit PassthroughFabric(ccip::Shell &shell)
            : _shell(shell)
        {
        }
        void
        dmaRequest(ccip::DmaTxnPtr txn) override
        {
            // vIOMMU identity: the IO virtual address is the guest
            // virtual address.
            txn->iova = mem::Iova(txn->gva.value());
            txn->tag = 0;
            // Pass-through hosts exactly one VM with one process.
            txn->vm = 0;
            txn->proc = 0;
            _shell.fromAfu(std::move(txn));
        }
        std::uint32_t injectIntervalCycles() const override
        {
            return 1;
        }

      private:
        ccip::Shell &_shell;
    };

    sim::EventQueue &_eq;
    PlatformConfig _config;
    sim::Telemetry &_telemetry;
    sim::TraceBus &_trace;

    mem::HostMemory _memory;
    mem::FrameAllocator _frames;
    mem::MemoryController _memctl;
    iommu::Iommu _iommu;
    ccip::Shell _shell;

    std::unique_ptr<fpga::HardwareMonitor> _monitor;
    std::unique_ptr<PassthroughFabric> _ptFabric;
    std::vector<std::unique_ptr<accel::Accelerator>> _accels;
};

} // namespace optimus::hv

#endif // OPTIMUS_HV_PLATFORM_HH

/**
 * @file
 * The OPTIMUS hardware monitor (Fig 3): the virtualization control
 * unit, the multiplexer tree, and one auditor per physical
 * accelerator, synthesized between the shell and the accelerators.
 */

#ifndef OPTIMUS_FPGA_HARDWARE_MONITOR_HH
#define OPTIMUS_FPGA_HARDWARE_MONITOR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "ccip/packet.hh"
#include "ccip/shell.hh"
#include "fpga/accel_port.hh"
#include "fpga/auditor.hh"
#include "fpga/mmio_layout.hh"
#include "fpga/mux_tree.hh"
#include "sim/event_queue.hh"
#include "sim/platform_params.hh"
#include "sim/stats.hh"

namespace optimus::fpga {

/**
 * The virtualization control unit's architectural state: the offset
 * table (page table slicing) and the reset table.
 */
struct VcuState
{
    std::uint32_t mgmtIndex = 0;
    OffsetEntry staged;
};

/** The complete on-FPGA virtualization layer. */
class HardwareMonitor
{
  public:
    /**
     * Builds the monitor and takes over the shell's AFU-side sinks.
     *
     * @param num_accels Physical accelerators (up to 8 at 400 MHz
     *        per the paper's synthesis results).
     * @param arity Multiplexer tree arity (2 by default).
     */
    HardwareMonitor(sim::EventQueue &eq,
                    const sim::PlatformParams &params,
                    ccip::Shell &shell, std::uint32_t num_accels,
                    std::uint32_t arity = 2,
                    sim::Scope scope = {});

    std::uint32_t numAccels() const
    {
        return static_cast<std::uint32_t>(_auditors.size());
    }

    /** Auditor @p idx: accelerator @p idx's fabric port. */
    Auditor &auditor(std::uint32_t idx) { return *_auditors[idx]; }

    /**
     * Handle an MMIO op arriving from the shell: intercepted by the
     * VCU when it falls in the management page, sent down the tree to
     * the auditor of the page it names otherwise. Out-of-range
     * accesses are discarded (reads return all-ones, like a PCIe
     * master abort).
     */
    void mmioFromShell(ccip::MmioOp op);

    std::uint64_t droppedMmios() const { return _droppedMmio.value(); }

  private:
    void handleVcuMmio(ccip::MmioOp &op);

    sim::EventQueue &_eq;
    ccip::Shell &_shell;
    sim::Tick _vcuLatency;
    sim::Tick _mmioTreeLatency;

    MuxTree _tree;
    std::vector<std::unique_ptr<Auditor>> _auditors;
    VcuState _vcu;

    sim::Counter _droppedMmio;
    sim::Counter _vcuMmios;
};

} // namespace optimus::fpga

#endif // OPTIMUS_FPGA_HARDWARE_MONITOR_HH

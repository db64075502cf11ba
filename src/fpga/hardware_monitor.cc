#include "fpga/hardware_monitor.hh"

#include <utility>

#include "sim/logging.hh"

namespace optimus::fpga {

HardwareMonitor::HardwareMonitor(sim::EventQueue &eq,
                                 const sim::PlatformParams &params,
                                 ccip::Shell &shell,
                                 std::uint32_t num_accels,
                                 std::uint32_t arity,
                                 sim::Scope scope)
    : _eq(eq),
      _shell(shell),
      _vcuLatency(params.vcuCycles *
                  sim::periodFromMhz(params.fpgaIfaceMhz)),
      _mmioTreeLatency((params.muxUpCyclesPerLevel +
                        params.muxDownCyclesPerLevel) *
                       sim::periodFromMhz(params.fpgaIfaceMhz)),
      _tree(eq, params, num_accels, arity, scope.sub("mux")),
      _droppedMmio(scope.node, "dropped_mmios",
                   "MMIOs matching no accelerator page"),
      _vcuMmios(scope.node, "vcu_mmios",
                "management MMIOs handled by the VCU")
{
    OPTIMUS_ASSERT(num_accels >= 1 && num_accels <= 64,
                   "unsupported accelerator count %u", num_accels);

    for (std::uint32_t i = 0; i < num_accels; ++i) {
        _auditors.push_back(std::make_unique<Auditor>(
            eq, params, static_cast<ccip::AccelTag>(i),
            scope.sub(sim::strprintf("auditor%u", i))));
        auto [leaf_node, leaf_port] = _tree.leafAttach(i);
        _auditors.back()->attachLeaf(*leaf_node, leaf_port);
    }

    // Neither the root's pipeline nor the VCU arbitrates, so a packet
    // crosses both in one event: it reaches the shell one VCU latency
    // after it leaves the tree.
    _tree.setRootSink([this](ccip::DmaTxnPtr t, sim::Tick leave) {
        _eq.scheduleAt(leave + _vcuLatency,
                       [this, t = std::move(t)]() mutable {
                           _shell.fromAfu(std::move(t));
                       });
    });
    _tree.setDownSink([this](ccip::DmaTxnPtr t) {
        // The hardware broadcasts every response down the tree and
        // each auditor filters by tag; only the tag's owner ever
        // forwards, so the simulator dispatches to it directly (the
        // auditor still performs the hardware's tag check).
        if (t->tag < _auditors.size())
            _auditors[t->tag]->deliverDown(std::move(t));
    });

    _shell.setResponseSink(
        [this](ccip::DmaTxnPtr t) { _tree.down(std::move(t)); });
    _shell.setMmioSink(
        [this](ccip::MmioOp op) { mmioFromShell(std::move(op)); });
}

void
HardwareMonitor::mmioFromShell(ccip::MmioOp op)
{
    if (op.offset >= kVcuMmioBase &&
        op.offset < kVcuMmioBase + kVcuMmioBytes) {
        ++_vcuMmios;
        handleVcuMmio(op);
        return;
    }

    // Non-management MMIOs ride the tree down to the auditors. The
    // hardware broadcasts each one and every auditor filters by page;
    // only the page's owner accepts, so the simulator hands it to
    // that auditor directly (which still checks the page).
    _eq.scheduleIn(_mmioTreeLatency, [this, op = std::move(op)]() mutable {
        // Below the first accelerator page the difference wraps to a
        // page past every auditor.
        const std::uint64_t page =
            (op.offset - accelMmioBase(0)) / kAccelMmioBytes;
        if (page < _auditors.size() &&
            _auditors[page]->mmioDown(
                op, accelMmioBase(static_cast<std::uint32_t>(page))))
            return;
        ++_droppedMmio;
        if (!op.isWrite && op.onComplete)
            op.onComplete(~0ULL); // master abort reads as -1
    });
}

void
HardwareMonitor::handleVcuMmio(ccip::MmioOp &op)
{
    const std::uint64_t reg = op.offset - kVcuMmioBase;
    std::uint64_t read_value = 0;

    if (op.isWrite) {
        switch (reg) {
          case vcu_reg::kOffsetIndex:
            _vcu.mgmtIndex = static_cast<std::uint32_t>(op.value);
            break;
          case vcu_reg::kOffsetGvaBase:
            _vcu.staged.gvaBase = op.value;
            break;
          case vcu_reg::kOffsetValue:
            _vcu.staged.offset = op.value;
            break;
          case vcu_reg::kOffsetWindow:
            _vcu.staged.window = op.value;
            break;
          case vcu_reg::kOffsetCommit:
            _vcu.staged.valid = op.value != 0;
            if (_vcu.mgmtIndex < _auditors.size()) {
                _auditors[_vcu.mgmtIndex]->setOffsetEntry(_vcu.staged);
            }
            break;
          case vcu_reg::kResetTable:
            for (std::uint32_t i = 0; i < _auditors.size(); ++i) {
                if ((op.value >> i) & 1) {
                    if (AccelDevice *d = _auditors[i]->device())
                        d->hardReset();
                }
            }
            break;
          default:
            break; // writes to RO/unknown registers are ignored
        }
        if (op.onComplete)
            op.onComplete(op.value);
        return;
    }

    switch (reg) {
      case vcu_reg::kMagic:
        read_value = vcu_reg::kMagicValue;
        break;
      case vcu_reg::kNumAccels:
        read_value = _auditors.size();
        break;
      case vcu_reg::kCompat:
        read_value = 1;
        break;
      case vcu_reg::kOffsetIndex:
        read_value = _vcu.mgmtIndex;
        break;
      case vcu_reg::kOffsetGvaBase:
        read_value = _vcu.staged.gvaBase;
        break;
      case vcu_reg::kOffsetValue:
        read_value = _vcu.staged.offset;
        break;
      case vcu_reg::kOffsetWindow:
        read_value = _vcu.staged.window;
        break;
      default:
        read_value = 0;
        break;
    }
    if (op.onComplete)
        op.onComplete(read_value);
}

} // namespace optimus::fpga

#include "hv/platform.hh"

#include "fpga/mmio_layout.hh"
#include "sim/logging.hh"

namespace optimus::hv {

Platform::Platform(sim::EventQueue &eq, PlatformConfig config,
                   sim::Telemetry &telemetry, sim::TraceBus &trace)
    : _eq(eq),
      _config(std::move(config)),
      _telemetry(telemetry),
      _trace(trace),
      _memory(188ULL << 30),
      _frames(mem::Hpa(mem::kPage2M), mem::Hpa(188ULL << 30)),
      _memctl(_eq, _config.params, {&telemetry.node("mem"), &trace}),
      _iommu(_eq, _config.params, {&telemetry.node("iommu"), &trace}),
      _shell(_eq, _config.params, _memory, _memctl, _iommu,
             {&telemetry.node("shell"), &trace})
{
    OPTIMUS_ASSERT(!_config.apps.empty(),
                   "platform needs at least one accelerator");
    if (_config.mode == FabricMode::kPassthrough) {
        OPTIMUS_ASSERT(_config.apps.size() == 1,
                       "pass-through hosts exactly one accelerator");
    } else {
        OPTIMUS_ASSERT(_config.apps.size() <= 8,
                       "OPTIMUS synthesizes at most eight physical "
                       "accelerators at 400 MHz");
    }

    for (std::uint32_t i = 0; i < _config.apps.size(); ++i) {
        std::string name = sim::strprintf(
            "accel%u.%s", i, _config.apps[i].c_str());
        // Instance names like "accel0.MB" address a nested telemetry
        // node, so per-accelerator stats group under their slot.
        _accels.push_back(accel::makeAccelerator(
            _config.apps[i], _eq,
            _config.params, name, {&telemetry.node(name), &trace}));
    }

    if (_config.mode == FabricMode::kOptimus) {
        _monitor = std::make_unique<fpga::HardwareMonitor>(
            _eq, _config.params,
            _shell,
            static_cast<std::uint32_t>(_config.apps.size()),
            _config.treeArity,
            sim::Scope{&telemetry.node("fabric"), &trace});
        for (std::uint32_t i = 0; i < _accels.size(); ++i) {
            _monitor->auditor(i).setDevice(_accels[i].get());
            _accels[i]->attachFabric(&_monitor->auditor(i));
        }
    } else {
        _ptFabric = std::make_unique<PassthroughFabric>(_shell);
        accel::Accelerator *a = _accels[0].get();
        a->attachFabric(_ptFabric.get());
        _shell.setResponseSink([a](ccip::DmaTxnPtr txn) {
            a->dmaResponse(std::move(txn));
        });
        _shell.setMmioSink([a](ccip::MmioOp op) {
            // The pass-through device's BAR0 maps its register page
            // directly; offsets arrive page-relative.
            fpga::mmioAccess(*a, op.offset % fpga::kAccelMmioBytes, op);
        });
    }
}

} // namespace optimus::hv

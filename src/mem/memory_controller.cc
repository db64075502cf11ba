#include "mem/memory_controller.hh"

#include <algorithm>

namespace optimus::mem {

MemoryController::MemoryController(sim::EventQueue &eq,
                                   const sim::PlatformParams &params,
                                   sim::Scope scope)
    : _eq(eq),
      _latency(params.dramLatency),
      // GB/s == bytes per ns == bytes per 1000 ticks.
      _bytesPerTick(params.dramGbps / static_cast<double>(sim::kTickNs)),
      _accesses(scope.node, "accesses", "DRAM accesses"),
      _bytes(scope.node, "bytes", "DRAM bytes transferred")
{
}

sim::Tick
MemoryController::admit(std::uint64_t bytes)
{
    ++_accesses;
    _bytes += bytes;
    // Accesses repeat a handful of line sizes, so cache the last
    // divide; the memo hands back the exact value the division
    // produced, keeping results bit-identical.
    sim::Tick ser;
    if (bytes == _serMemoBytes) {
        ser = _serMemoTicks;
    } else {
        ser = static_cast<sim::Tick>(
            static_cast<double>(bytes) / _bytesPerTick);
        _serMemoBytes = bytes;
        _serMemoTicks = ser;
    }
    sim::Tick start = std::max(_eq.now(), _nextFree);
    _nextFree = start + ser;
    return _nextFree + _latency;
}

} // namespace optimus::mem

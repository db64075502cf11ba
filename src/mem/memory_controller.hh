/**
 * @file
 * Timed DRAM controller.
 *
 * Models a fixed access latency plus a sustained-bandwidth
 * serialization constraint. The controller sits behind the package
 * links, so on this platform it is never the first-order bottleneck —
 * but it provides back-pressure realism and shows up in page walks.
 */

#ifndef OPTIMUS_MEM_MEMORY_CONTROLLER_HH
#define OPTIMUS_MEM_MEMORY_CONTROLLER_HH

#include <cstdint>

#include "sim/event_queue.hh"
#include "sim/platform_params.hh"
#include "sim/stats.hh"
#include "sim/telemetry.hh"
#include "sim/types.hh"

namespace optimus::mem {

/**
 * Bandwidth/latency model for the host memory system.
 *
 * admit() returns the tick the data would be available, as
 * ccip::Link::reserveDepart returns a departure; the caller schedules
 * whatever follows and does the functional data movement against
 * HostMemory itself, keeping timing and function decoupled.
 */
class MemoryController
{
  public:
    MemoryController(sim::EventQueue &eq,
                     const sim::PlatformParams &params,
                     sim::Scope scope = {});

    /**
     * Admit an access of @p bytes now, first come first served (reads
     * and writes take the same service time).
     * @return the tick the access completes.
     */
    sim::Tick admit(std::uint64_t bytes);

    std::uint64_t accesses() const { return _accesses.value(); }

  private:
    sim::EventQueue &_eq;
    sim::Tick _latency;
    double _bytesPerTick;
    sim::Tick _nextFree = 0;
    /** Last (bytes -> serialization ticks) divide, memoized. */
    std::uint64_t _serMemoBytes = ~std::uint64_t(0);
    sim::Tick _serMemoTicks = 0;
    sim::Counter _accesses;
    sim::Counter _bytes;
};

} // namespace optimus::mem

#endif // OPTIMUS_MEM_MEMORY_CONTROLLER_HH

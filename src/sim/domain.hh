/**
 * @file
 * Names perfbench/perfbench_sim.cc still compiles against from the
 * deleted parallel core. Each goes at the next benchmark change;
 * nothing else uses them.
 */

#ifndef OPTIMUS_SIM_DOMAIN_HH
#define OPTIMUS_SIM_DOMAIN_HH

#include <cstdint>

#include "sim/event_queue.hh"

namespace optimus::sim {

/** Goes at the next benchmark change. perfbench reads executed()
 *  through it: hv::System::domains is the simulation's queue. */
using DomainSet = EventQueue;

/**
 * Goes at the next benchmark change. The two counters perfbench
 * reports as sim.epochs and sim.cross_delivered (hv::System::sched).
 */
class EpochScheduler
{
  public:
    explicit EpochScheduler(const EventQueue &eq) : _eq(eq) {}

    /** Top-level runs of the queue that executed an event. */
    std::uint64_t epochs() const { return _eq.runs(); }
    /** Fleet migration parcels delivered. */
    std::uint64_t delivered() const { return parcels; }

    /** fleet::Cluster counts each parcel as it lands. */
    std::uint64_t parcels = 0;

  private:
    const EventQueue &_eq;
};

} // namespace optimus::sim

#endif // OPTIMUS_SIM_DOMAIN_HH

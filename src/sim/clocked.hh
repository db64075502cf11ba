/**
 * @file
 * Clock-domain helpers.
 *
 * The HARP-style platform runs several clock domains at once: the FPGA
 * interface and monitor at 400 MHz, individual accelerators at 100 to
 * 400 MHz (Table 1 of the paper), and the CPU at 2.8 GHz. A Clocked
 * object converts between cycles and ticks and aligns events to its
 * clock edges.
 */

#ifndef OPTIMUS_SIM_CLOCKED_HH
#define OPTIMUS_SIM_CLOCKED_HH

#include <cstdint>
#include <utility>

#include "sim/event_queue.hh"
#include "sim/fastdiv.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace optimus::sim {

/** A component driven by a fixed-frequency clock. */
class Clocked
{
  public:
    Clocked(EventQueue &eq, std::uint64_t freq_mhz)
        : _eq(eq), _freqMhz(freq_mhz),
          _period(periodFromMhz(freq_mhz)), _periodDiv(_period)
    {
        OPTIMUS_ASSERT(freq_mhz > 0 && freq_mhz <= 1000000,
                       "bad frequency %llu MHz",
                       static_cast<unsigned long long>(freq_mhz));
    }

    EventQueue &eventq() const { return _eq; }
    Tick now() const { return _eq.now(); }
    std::uint64_t freqMhz() const { return _freqMhz; }
    Tick clockPeriod() const { return _period; }

    /** Ticks covered by @p cycles of this clock. */
    Tick cyclesToTicks(std::uint64_t cycles) const
    {
        return cycles * _period;
    }

    /** Whole cycles elapsed by tick @p t (rounded down). */
    std::uint64_t ticksToCycles(Tick t) const
    {
        return _periodDiv.divide(t);
    }

    /**
     * The next clock edge at or after the current time. A component
     * that wants cycle-accurate behaviour schedules work on edges.
     */
    Tick
    nextEdge() const
    {
        Tick t = _eq.now();
        Tick rem = _periodDiv.mod(t);
        return rem == 0 ? t : t + (_period - rem);
    }

    /** Schedule @p f exactly @p cycles edges from the next edge. */
    template <typename F>
    void
    scheduleCycles(std::uint64_t cycles, F &&f) const
    {
        _eq.scheduleAt(nextEdge() + cyclesToTicks(cycles),
                       std::forward<F>(f));
    }

  private:
    EventQueue &_eq;
    std::uint64_t _freqMhz;
    Tick _period;
    /** Reciprocal form of _period (exact; see fastdiv.hh). */
    InvariantDiv _periodDiv;
};

} // namespace optimus::sim

#endif // OPTIMUS_SIM_CLOCKED_HH

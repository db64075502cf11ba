/**
 * @file
 * Fundamental simulation types: ticks, frequencies, and sizes.
 *
 * The simulator measures time in integer picoseconds so that the clock
 * periods of every domain used by the paper (400 MHz, 200 MHz, 100 MHz
 * FPGA logic; 2.8 GHz CPU) are exactly representable.
 */

#ifndef OPTIMUS_SIM_TYPES_HH
#define OPTIMUS_SIM_TYPES_HH

#include <cstdint>

namespace optimus::sim {

/** Simulated time, in picoseconds. */
using Tick = std::uint64_t;

/** Ticks per common wall-clock units. */
constexpr Tick kTickPs = 1;
constexpr Tick kTickNs = 1000 * kTickPs;
constexpr Tick kTickUs = 1000 * kTickNs;
constexpr Tick kTickMs = 1000 * kTickUs;
constexpr Tick kTickSec = 1000 * kTickMs;

/** A tick value that no simulation ever reaches. */
constexpr Tick kTickForever = ~Tick(0);

/** Convert a frequency in MHz to a clock period in ticks. */
constexpr Tick
periodFromMhz(std::uint64_t mhz)
{
    // 1 MHz -> 1 us period -> 1e6 ps.
    return static_cast<Tick>(1000000ULL / mhz) * kTickPs;
}

/** Convenience byte-size literals. */
constexpr std::uint64_t operator""_KiB(unsigned long long v)
{
    return v << 10;
}
constexpr std::uint64_t operator""_MiB(unsigned long long v)
{
    return v << 20;
}
constexpr std::uint64_t operator""_GiB(unsigned long long v)
{
    return v << 30;
}

/** Cache-line size used by the CCI-P style interface (64 bytes). */
constexpr std::uint64_t kCacheLineBytes = 64;

} // namespace optimus::sim

#endif // OPTIMUS_SIM_TYPES_HH

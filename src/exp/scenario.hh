/**
 * @file
 * The unit of experiment work: a named Scenario whose body builds a
 * private hv::System, runs it, and returns one ResultRow. Scenarios
 * are declared table-by-table on an exp::Runner; because each one is
 * a self-contained simulation context (see hv::System's
 * context-locality invariant) the runner may execute any subset of
 * them concurrently and still render identical tables.
 */

#ifndef OPTIMUS_EXP_SCENARIO_HH
#define OPTIMUS_EXP_SCENARIO_HH

#include <functional>
#include <string>

#include "exp/result.hh"
#include "sim/types.hh"

namespace optimus::exp {

/**
 * Per-run knobs handed to every scenario body. timeScale < 1 shrinks
 * warmup/measurement windows (CI smoke runs); results are still
 * deterministic for a given scale, just not comparable across scales.
 */
struct RunContext
{
    double timeScale = 1.0;

    /** Fault-campaign plan (fault::FaultPlan grammar) from --faults.
     *  Scenarios that support injection pass this to
     *  builders::installFaults(); empty = fault-free run. */
    std::string faults;

    /** --nodes: restrict fleet scenarios to this cluster size;
     *  0 = run the bench's full node-count sweep. */
    unsigned nodes = 0;

    /** --fleet-policy: restrict fleet scenarios to one routing
     *  policy (least-loaded / locality / slo-aware); empty = run
     *  the bench's full policy sweep. */
    std::string fleetPolicy;

    /** --cmd-path: restrict command-path-aware scenarios to one
     *  submission path — "mmio" (trapped doorbells, the paper's
     *  baseline) or "ring" (polled shared-memory rings, DESIGN.md
     *  §14); empty = run each bench's default set. Benches render
     *  restricted-out rows as "skipped" rather than dropping them. */
    std::string cmdPath;

    /** Scale a simulated duration (never below one tick). */
    sim::Tick
    scaled(sim::Tick t) const
    {
        if (timeScale == 1.0 || t == 0)
            return t;
        double s = static_cast<double>(t) * timeScale;
        return s < 1.0 ? sim::Tick{1}
                       : static_cast<sim::Tick>(s);
    }

    /** Scale a workload size (vertices, nodes, jobs) for scenarios
     *  that run to completion rather than over a window. */
    std::uint64_t
    scaledCount(std::uint64_t n, std::uint64_t floor = 1) const
    {
        if (timeScale == 1.0)
            return n;
        auto s = static_cast<std::uint64_t>(
            static_cast<double>(n) * timeScale);
        return s < floor ? floor : s;
    }

    /** Scale a working-set size, keeping 4 KiB granularity. */
    std::uint64_t
    scaledBytes(std::uint64_t bytes,
                std::uint64_t floor = 1ULL << 16) const
    {
        if (timeScale == 1.0)
            return bytes;
        auto s = static_cast<std::uint64_t>(
            static_cast<double>(bytes) * timeScale);
        s &= ~std::uint64_t{4095};
        return s < floor ? floor : s;
    }
};

/** One row-producing experiment. */
struct Scenario
{
    std::string name; ///< row label and --filter target
    std::function<ResultRow(const RunContext &)> run;
};

} // namespace optimus::exp

#endif // OPTIMUS_EXP_SCENARIO_HH

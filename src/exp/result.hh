/**
 * @file
 * Structured experiment results: typed table cells, one ResultRow per
 * scenario, and the FNV-1a fingerprint scheme (lifted from
 * bench_sim_kernel, now shared by every bench) that pins simulated
 * results across kernel and refactoring changes.
 *
 * The determinism contract: every cell marked deterministic — and the
 * row fingerprint — must be byte-identical no matter how many worker
 * threads execute the sweep. Wall-clock measurements are recorded as
 * volatile cells, which render like any other but are excluded from
 * fingerprints and from sameResults().
 */

#ifndef OPTIMUS_EXP_RESULT_HH
#define OPTIMUS_EXP_RESULT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/fnv.hh"

namespace optimus::exp {

/** FNV-1a accumulator over simulated results. */
using Fingerprint = sim::Fnv1a;

/** One table cell. */
struct Metric
{
    std::string key;  ///< column heading
    std::string text; ///< formatted cell, exactly as rendered
    double value = 0; ///< raw numeric value (JSON); 0 for pure text
    bool numeric = false;
    /** false for wall-clock measurements: rendered, but outside the
     *  determinism contract (no fingerprint, no sameResults). */
    bool deterministic = true;
};

/** One row of one table, produced by one scenario. */
struct ResultRow
{
    std::string label;
    std::vector<Metric> metrics;

    /**
     * Fingerprint of the simulated results behind this row. A
     * scenario with raw simulation outputs (op counts, final tick)
     * should fold them in via fp (keeping historical fingerprints
     * like BENCH_sim_kernel.json comparable); otherwise the runner
     * derives one from the label and the deterministic cells.
     */
    Fingerprint fp;
    bool fpExplicit = false;

    ResultRow() = default;
    explicit ResultRow(std::string l) : label(std::move(l)) {}

    /** Deterministic numeric cell; @p fmt is a printf float format. */
    ResultRow &num(const std::string &key, const char *fmt, double v);

    /** Deterministic integer cell. */
    ResultRow &count(const std::string &key, std::uint64_t v);

    /** Deterministic text cell. */
    ResultRow &str(const std::string &key, std::string text);

    /** Volatile (wall-clock) numeric cell. */
    ResultRow &wall(const std::string &key, const char *fmt, double v);

    /** Mark fp as scenario-provided (call after folding raw
     *  simulation outputs into fp). */
    ResultRow &
    sealFingerprint()
    {
        fpExplicit = true;
        return *this;
    }

    /** The row's final fingerprint (explicit or derived). */
    std::uint64_t fingerprint() const;
};

/** Deterministic-content equality: labels, keys, deterministic cell
 *  text, and fingerprints all match. */
bool sameResults(const ResultRow &a, const ResultRow &b);

} // namespace optimus::exp

#endif // OPTIMUS_EXP_RESULT_HH

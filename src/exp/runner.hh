/**
 * @file
 * The experiment runner shared by every bench binary: declare tables
 * of scenarios, then Runner::main() parses the common CLI (--jobs,
 * --filter, --json, --csv, --time-scale, --list, --quiet), executes
 * the selected scenarios on a thread pool, and renders paper-style
 * text tables plus optional JSON/CSV.
 *
 * Determinism contract: scenario bodies run concurrently but each
 * owns its simulation context, results land in declaration slots, and
 * all rendering happens on the calling thread in declaration order —
 * so every table, row, and fingerprint is byte-identical at --jobs 1
 * and --jobs 8. Wall-clock cells (ResultRow::wall) are the one
 * exception in the text tables; they are excluded from fingerprints
 * and from the JSON/CSV emitters, which are fully deterministic.
 */

#ifndef OPTIMUS_EXP_RUNNER_HH
#define OPTIMUS_EXP_RUNNER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/scenario.hh"

namespace optimus::exp {

/** Extra lines printed under a finished table, given its rows. */
using TableFooter =
    std::function<std::vector<std::string>(
        const std::vector<ResultRow> &)>;

class Runner
{
  public:
    struct Options
    {
        unsigned jobs = 1;
        double timeScale = 1.0;
        std::string filter;   ///< ECMAScript regex; empty = all
        std::string jsonPath; ///< write machine-readable JSON here
        std::string csvPath;  ///< write flat CSV here
        /** Directory for per-scenario observability dumps: each
         *  simulated System writes its telemetry tree as JSON plus a
         *  Chrome-trace (Perfetto-loadable) event file. Excluded
         *  from fingerprints; empty = disabled. */
        std::string telemetryDir;
        /** Fault-campaign plan (fault::FaultPlan syntax) forwarded
         *  to scenarios via RunContext::faults; empty = fault-free. */
        std::string faults;
        /** Run every selected scenario this many times: the
         *  deterministic cells must agree byte-for-byte across
         *  repeats (a mismatch fails the scenario), and each
         *  wall-clock cell reports the median across repeats —
         *  stabilizing the one class of cell the determinism
         *  contract cannot pin down. */
        unsigned repeat = 1;
        /**
         * Fleet-bench node-count selector (`--nodes N`): scenarios
         * that sweep cluster sizes restrict themselves to N nodes;
         * 0 (default) keeps the full sweep. Ignored by single-node
         * benches.
         */
        unsigned nodes = 0;
        /** Fleet routing policy (`--fleet-policy P`, one of
         *  least-loaded / locality / slo-aware); empty (default)
         *  keeps the full policy sweep. Ignored by single-node
         *  benches. */
        std::string fleetPolicy;
        /** Command path selector (`--cmd-path mmio|ring`): restrict
         *  command-path-aware benches to one submission path; empty
         *  (default) keeps each bench's default set. Benches render
         *  restricted-out rows as "skipped". */
        std::string cmdPath;
        bool list = false;    ///< print scenario names and exit
        bool quiet = false;   ///< suppress text tables
        /** Abort the whole run on the first scenario failure instead
         *  of recording a FAILED row and continuing. */
        bool failFast = false;
    };

    /** A finished table: declaration metadata plus result rows in
     *  declaration order (skipped scenarios leave no row). */
    struct TableResult
    {
        std::string title;
        std::string paperRef;
        std::vector<ResultRow> rows;
        std::uint64_t fingerprint = 0;
    };

    explicit Runner(std::string bench) : _bench(std::move(bench)) {}

    /** Start a new table; subsequent add() calls populate it. */
    Runner &table(std::string title, std::string paperRef);

    /** Declare a scenario in the current table. */
    Runner &add(std::string name,
                std::function<ResultRow(const RunContext &)> run);

    /** Static note line under the current table. */
    Runner &note(std::string text);

    /** Computed footer lines under the current table. */
    Runner &footer(TableFooter fn);

    /** Ceiling on --jobs: the number of OS threads the run
     *  starts. */
    static constexpr unsigned kMaxThreads = 256;
    /** Ceiling on --time-scale. */
    static constexpr double kMaxTimeScale = 100.0;

    /**
     * Parse the common CLI into @p opts. Returns false (after
     * printing usage or the reason) on a bad flag or a bad value —
     * non-numeric, trailing junk, negative, non-finite or out of
     * range; `--help` also returns false.
     */
    static bool parseArgs(int argc, char **argv, Options &opts);

    /** Execute the selected scenarios and render. Returns the number
     *  of scenarios that threw (0 = success). */
    int run(const Options &opts);

    /** Convenience for bench main(): parse + run. */
    int main(int argc, char **argv);

    /** Results of the last run() (for tests). */
    const std::vector<TableResult> &results() const
    {
        return _results;
    }

    /** Wall-clock of the last run()'s execute phase, ms. */
    double wallMs() const { return _wallMs; }

    /** "name: reason" for every scenario the last run() failed. */
    const std::vector<std::string> &errors() const
    {
        return _errors;
    }

  private:
    struct TableSpec
    {
        std::string title;
        std::string paperRef;
        std::vector<Scenario> scenarios;
        std::vector<std::string> notes;
        TableFooter footerFn;
    };

    void render(const Options &opts) const;
    void writeJson(const std::string &path) const;
    void writeCsv(const std::string &path) const;

    std::string _bench;
    std::vector<TableSpec> _tables;
    std::vector<TableResult> _results;
    std::vector<std::string> _errors;
    double _wallMs = 0;
};

} // namespace optimus::exp

#endif // OPTIMUS_EXP_RUNNER_HH

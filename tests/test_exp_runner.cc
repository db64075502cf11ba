/**
 * @file
 * exp::Runner determinism contract: a scenario re-run in-process —
 * and run concurrently on a thread pool — must yield byte-identical
 * ResultRows and fingerprints. This is the regression net for the
 * context-locality invariant (hv::System touches nothing outside
 * itself), which the parallel experiment runner relies on.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/builders.hh"
#include "exp/runner.hh"

using namespace optimus;

namespace {

/**
 * A mid-size simulation: four MemBench tenants through the full
 * OPTIMUS stack (mux tree, IOMMU, links, DRAM), fingerprinting
 * per-tenant progress and the final simulated time.
 */
exp::ResultRow
membenchScenario(const exp::RunContext &ctx)
{
    hv::System sys(hv::makeOptimusConfig("MB", 8));
    sys.platform.memory().setScratchWrites(true);

    std::vector<hv::AccelHandle *> handles;
    for (std::uint32_t j = 0; j < 4; ++j) {
        hv::AccelHandle &h = sys.attach(j, 2ULL << 30);
        exp::setupMembench(h, 4ULL << 20,
                           accel::MembenchAccel::kRead, 31 + j);
        handles.push_back(&h);
    }
    for (auto *h : handles)
        h->start();

    double ns = 0;
    auto ops = exp::measureWindow(sys, handles,
                                  ctx.scaled(50 * sim::kTickUs),
                                  ctx.scaled(150 * sim::kTickUs),
                                  &ns);
    exp::ResultRow row("membench_4t");
    std::uint64_t total = 0;
    for (std::uint64_t o : ops) {
        row.fp.add(o);
        total += o;
    }
    row.fp.add(sys.eq.now());
    row.sealFingerprint();
    row.count("ops", total);
    row.num("gbps", "%.2f", exp::gbps(total, ns));
    return row;
}

TEST(ExpRunner, RepeatedRunIsIdentical)
{
    exp::RunContext ctx;
    exp::ResultRow first = membenchScenario(ctx);
    exp::ResultRow second = membenchScenario(ctx);
    EXPECT_TRUE(exp::sameResults(first, second));
    EXPECT_EQ(first.fingerprint(), second.fingerprint());
    EXPECT_NE(first.fingerprint(), 0u);
}

TEST(ExpRunner, ConcurrentRunMatchesSerialRun)
{
    auto build = [](exp::Runner &r) {
        r.table("determinism", "test");
        // Several copies of the same simulation: under --jobs they
        // execute concurrently on different threads, so any shared
        // mutable state between Systems shows up as a diff here.
        for (int i = 0; i < 4; ++i)
            r.add("copy" + std::to_string(i), membenchScenario);
    };

    exp::Runner serial("t");
    build(serial);
    exp::Runner::Options o1;
    o1.quiet = true;
    o1.jobs = 1;
    ASSERT_EQ(serial.run(o1), 0);

    exp::Runner parallel("t");
    build(parallel);
    exp::Runner::Options o4 = o1;
    o4.jobs = 4;
    ASSERT_EQ(parallel.run(o4), 0);

    ASSERT_EQ(serial.results().size(), parallel.results().size());
    const auto &ts = serial.results()[0];
    const auto &tp = parallel.results()[0];
    ASSERT_EQ(ts.rows.size(), 4u);
    ASSERT_EQ(tp.rows.size(), 4u);
    for (std::size_t i = 0; i < ts.rows.size(); ++i) {
        EXPECT_TRUE(exp::sameResults(ts.rows[i], tp.rows[i]));
        EXPECT_EQ(ts.rows[i].fingerprint(),
                  tp.rows[i].fingerprint());
        // All copies simulate the same thing.
        EXPECT_EQ(ts.rows[i].fingerprint(),
                  ts.rows[0].fingerprint());
    }
    EXPECT_EQ(ts.fingerprint, tp.fingerprint);
}

TEST(ExpRunner, FilterSelectsByName)
{
    exp::Runner r("t");
    r.table("tbl", "test");
    r.add("alpha", [](const exp::RunContext &) {
        return exp::ResultRow("alpha").count("v", 1);
    });
    r.add("beta", [](const exp::RunContext &) {
        return exp::ResultRow("beta").count("v", 2);
    });

    exp::Runner::Options o;
    o.quiet = true;
    o.filter = "^bet";
    ASSERT_EQ(r.run(o), 0);
    ASSERT_EQ(r.results()[0].rows.size(), 1u);
    EXPECT_EQ(r.results()[0].rows[0].label, "beta");
}

TEST(ExpRunner, ThrowingScenarioRecordsFailedRowAndContinues)
{
    exp::Runner r("t");
    r.table("tbl", "test");
    r.add("good_before", [](const exp::RunContext &) {
        return exp::ResultRow("good_before").count("v", 1);
    });
    r.add("boom", [](const exp::RunContext &) -> exp::ResultRow {
        throw std::runtime_error("injected failure");
    });
    r.add("good_after", [](const exp::RunContext &) {
        return exp::ResultRow("good_after").count("v", 2);
    });

    exp::Runner::Options o;
    o.quiet = true;
    // Nonzero exit (one failure), but the sweep ran to completion.
    EXPECT_EQ(r.run(o), 1);
    ASSERT_EQ(r.errors().size(), 1u);
    EXPECT_EQ(r.errors()[0], "boom: injected failure");

    // The failed scenario holds its declaration slot as a FAILED row,
    // so the table stays aligned and the reason is visible.
    const auto &rows = r.results()[0].rows;
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[1].label, "boom");
    ASSERT_EQ(rows[1].metrics.size(), 1u);
    EXPECT_EQ(rows[1].metrics[0].key, "status");
    EXPECT_EQ(rows[1].metrics[0].text, "FAILED: injected failure");
    EXPECT_EQ(rows[0].label, "good_before");
    EXPECT_EQ(rows[2].label, "good_after");
}

TEST(ExpRunner, FailFastStopsAfterFirstFailure)
{
    exp::Runner r("t");
    r.table("tbl", "test");
    r.add("boom", [](const exp::RunContext &) -> exp::ResultRow {
        throw std::runtime_error("injected failure");
    });
    r.add("never_runs", [](const exp::RunContext &) {
        return exp::ResultRow("never_runs").count("v", 1);
    });

    exp::Runner::Options o;
    o.quiet = true;
    o.failFast = true;
    EXPECT_NE(r.run(o), 0);
    // The failure aborted the sweep: only the FAILED row made it.
    ASSERT_EQ(r.results()[0].rows.size(), 1u);
    EXPECT_EQ(r.results()[0].rows[0].label, "boom");
}

TEST(ExpRunner, FaultsFlagReachesScenarios)
{
    exp::Runner r("t");
    r.table("tbl", "test");
    r.add("echo", [](const exp::RunContext &ctx) {
        return exp::ResultRow("echo").str("plan", ctx.faults);
    });

    exp::Runner::Options o;
    o.quiet = true;
    o.faults = "hang@0:at=1ms";
    ASSERT_EQ(r.run(o), 0);
    EXPECT_EQ(r.results()[0].rows[0].metrics[0].text,
              "hang@0:at=1ms");
}

TEST(ExpRunner, RepeatReportsMedianWallClockCells)
{
    // Each repeat produces the same deterministic cells but a
    // different wall-clock observation; --repeat must keep the
    // former byte-identical and report the median of the latter.
    auto counter = std::make_shared<int>(0);
    exp::Runner r("t");
    r.table("tbl", "test");
    r.add("timed", [counter](const exp::RunContext &) {
        double fake_wall = 10.0 * ++*counter; // 10, 20, 30
        return exp::ResultRow("timed").count("ops", 7).wall(
            "wall_ms", "%.1f", fake_wall);
    });

    exp::Runner::Options o;
    o.quiet = true;
    o.repeat = 3;
    ASSERT_EQ(r.run(o), 0);
    EXPECT_EQ(*counter, 3);
    const auto &row = r.results()[0].rows[0];
    ASSERT_EQ(row.metrics.size(), 2u);
    EXPECT_EQ(row.metrics[0].key, "ops");
    EXPECT_EQ(row.metrics[0].value, 7.0);
    EXPECT_EQ(row.metrics[1].key, "wall_ms");
    EXPECT_EQ(row.metrics[1].text, "20.0"); // the median repeat
}

TEST(ExpRunner, RepeatAssertsDeterministicCellsIdentical)
{
    // A scenario whose *deterministic* cells drift across repeats is
    // a determinism regression: --repeat must fail it.
    auto counter = std::make_shared<int>(0);
    exp::Runner r("t");
    r.table("tbl", "test");
    r.add("drifty", [counter](const exp::RunContext &) {
        return exp::ResultRow("drifty").count("ops", ++*counter);
    });

    exp::Runner::Options o;
    o.quiet = true;
    o.repeat = 2;
    EXPECT_EQ(r.run(o), 1);
    ASSERT_EQ(r.errors().size(), 1u);
    EXPECT_NE(r.errors()[0].find("differ between repeat"),
              std::string::npos);
}

TEST(ExpRunner, RepeatKeepsSimulationFingerprintsIdentical)
{
    exp::Runner once("t");
    once.table("tbl", "test");
    once.add("mb", membenchScenario);
    exp::Runner::Options o1;
    o1.quiet = true;
    ASSERT_EQ(once.run(o1), 0);

    exp::Runner thrice("t");
    thrice.table("tbl", "test");
    thrice.add("mb", membenchScenario);
    exp::Runner::Options o3 = o1;
    o3.repeat = 3;
    ASSERT_EQ(thrice.run(o3), 0);

    // Repeats re-run the simulation from scratch: fingerprints (and
    // the whole table) must match a single run exactly.
    EXPECT_EQ(once.results()[0].rows[0].fingerprint(),
              thrice.results()[0].rows[0].fingerprint());
    EXPECT_EQ(once.results()[0].fingerprint,
              thrice.results()[0].fingerprint);
}

TEST(ExpRunner, WallClockCellsAreOutsideTheContract)
{
    exp::ResultRow a("row");
    a.count("ops", 100).wall("wall_ms", "%.2f", 1.23);
    exp::ResultRow b("row");
    b.count("ops", 100).wall("wall_ms", "%.2f", 99.9);
    // Different wall-clock measurements, same simulated results:
    // equal under the determinism contract.
    EXPECT_TRUE(exp::sameResults(a, b));
    EXPECT_EQ(a.fingerprint(), b.fingerprint());

    exp::ResultRow c("row");
    c.count("ops", 101).wall("wall_ms", "%.2f", 1.23);
    EXPECT_FALSE(exp::sameResults(a, c));
}

TEST(ExpRunner, NonFiniteMetricsWriteJsonNull)
{
    // A ratio over an empty window (0/0) or a zero denominator must
    // still leave a parseable file: JSON has no inf or nan.
    exp::Runner r("t");
    r.table("tbl", "test");
    r.add("ratios", [](const exp::RunContext &) {
        return exp::ResultRow("ratios")
            .num("over_zero", "%.2f",
                 std::numeric_limits<double>::infinity())
            .num("zero_over_zero", "%.2f",
                 std::numeric_limits<double>::quiet_NaN())
            .num("one", "%.2f", 1.0);
    });
    exp::Runner::Options o;
    o.quiet = true;
    o.jsonPath = testing::TempDir() + "exp_runner_nonfinite.json";
    ASSERT_EQ(r.run(o), 0);

    std::ifstream in(o.jsonPath);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();
    EXPECT_NE(json.find("\"over_zero\": null"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"zero_over_zero\": null"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"one\": 1"), std::string::npos) << json;
    EXPECT_EQ(json.find("inf"), std::string::npos) << json;
    EXPECT_EQ(json.find("nan"), std::string::npos) << json;
    std::remove(o.jsonPath.c_str());
}

TEST(ExpRunner, RemovedSplitFlagFailsParsingCleanly)
{
    // Every System is one simulation domain: the old split-plan flag
    // is an unknown flag, reported without touching the options.
    char prog[] = "bench";
    char flag[] = "--domain-plan";
    char value[] = "split";
    char *argv[] = {prog, flag, value};
    exp::Runner::Options o;
    testing::internal::CaptureStderr();
    EXPECT_FALSE(exp::Runner::parseArgs(3, argv, o));
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("unknown flag --domain-plan"), std::string::npos)
        << err;
    EXPECT_EQ(o.jobs, 1u);
}

TEST(ExpRunner, RemovedSimThreadsFlagFailsParsingCleanly)
{
    // A fleet runs on one event queue, with no worker pool to size:
    // --sim-threads is an unknown flag.
    char prog[] = "bench";
    char flag[] = "--sim-threads";
    char value[] = "4";
    char *argv[] = {prog, flag, value};
    exp::Runner::Options o;
    testing::internal::CaptureStderr();
    EXPECT_FALSE(exp::Runner::parseArgs(3, argv, o));
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("unknown flag --sim-threads"), std::string::npos)
        << err;
    EXPECT_EQ(o.jobs, 1u);
}

/** parseArgs over {"bench", args...}, with stderr captured into
 *  @p err. */
bool
parseWith(std::vector<std::string> args, exp::Runner::Options &o,
          std::string &err)
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    testing::internal::CaptureStderr();
    bool ok = exp::Runner::parseArgs(static_cast<int>(argv.size()),
                                     argv.data(), o);
    err = testing::internal::GetCapturedStderr();
    return ok;
}

TEST(ExpRunner, MalformedNumericFlagsFailParsing)
{
    // Each bad value fails in parseArgs itself, with a message naming
    // the flag and the value, and leaves the options untouched: no
    // scenario or thread can start from it, and no non-finite or
    // oversized scale reaches RunContext::scaled's cast.
    const std::vector<std::pair<std::string, std::string>> bad = {
        {"--time-scale", "nan"},    {"--time-scale", "inf"},
        {"--time-scale", "-inf"},   {"--time-scale", "1e400"},
        {"--time-scale", "0"},      {"--time-scale", "-0.5"},
        {"--time-scale", "0.5x"},   {"--time-scale", "fast"},
        {"--time-scale", ""},       {"--time-scale", "100.5"},
        {"--jobs", "4x"},           {"--jobs", "-1"},
        {"--jobs", "+4"},           {"--jobs", " 4"},
        {"--jobs", "four"},         {"--jobs", ""},
        {"--jobs", "257"},          {"-j", "99999999999999999999"},
        {"--repeat", "-1"},         {"--repeat", "3x"},
        {"--nodes", "-8"},          {"--nodes", "4294967296"},
    };
    for (const auto &[flag, value] : bad) {
        exp::Runner::Options o;
        std::string err;
        EXPECT_FALSE(parseWith({flag, value}, o, err))
            << flag << " '" << value << "'";
        EXPECT_NE(err.find(flag + " wants"), std::string::npos) << err;
        EXPECT_NE(err.find("'" + value + "'"), std::string::npos) << err;
        EXPECT_EQ(o.jobs, 1u);
        EXPECT_EQ(o.timeScale, 1.0);
        EXPECT_EQ(o.repeat, 1u);
        EXPECT_EQ(o.nodes, 0u);
    }

    // The ceilings themselves are accepted, and a zero thread or
    // repeat count still means one.
    exp::Runner::Options o;
    std::string err;
    EXPECT_TRUE(parseWith({"--jobs", "256", "--time-scale", "100",
                           "--repeat", "2", "--nodes", "8"},
                          o, err))
        << err;
    EXPECT_EQ(o.jobs, exp::Runner::kMaxThreads);
    EXPECT_EQ(o.timeScale, exp::Runner::kMaxTimeScale);
    EXPECT_EQ(o.repeat, 2u);
    EXPECT_EQ(o.nodes, 8u);
    exp::Runner::Options z;
    EXPECT_TRUE(parseWith({"-j", "0", "--repeat", "0", "--time-scale",
                           "0.02"},
                          z, err))
        << err;
    EXPECT_EQ(z.jobs, 1u);
    EXPECT_EQ(z.repeat, 1u);
    EXPECT_EQ(z.timeScale, 0.02);
}

} // namespace

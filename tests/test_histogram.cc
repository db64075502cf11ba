/**
 * @file
 * Unit tests for the log-bucketed sim::Histogram: bucket-boundary
 * arithmetic, exact percentiles on known distributions, merge,
 * move-safety under telemetry registration, and byte-deterministic
 * JSON export.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <utility>
#include <vector>

#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/telemetry.hh"

using namespace optimus;
using sim::Histogram;

namespace {

TEST(HistogramTest, LinearRegionIsExact)
{
    // Values below kLinearMax get width-1 buckets: index == value,
    // [lo, hi) == [v, v+1).
    for (std::uint64_t v = 0; v < Histogram::kLinearMax; ++v) {
        auto idx = Histogram::bucketIndex(v);
        EXPECT_EQ(idx, static_cast<std::uint32_t>(v));
        EXPECT_EQ(Histogram::bucketLo(idx), v);
        EXPECT_EQ(Histogram::bucketHi(idx), v + 1);
    }
}

TEST(HistogramTest, BucketBoundsBracketEveryValue)
{
    // Sweep values across many octaves (including the boundaries):
    // every value must land in a bucket whose [lo, hi) contains it,
    // indices must be monotone, and lo/hi must tile without gaps.
    std::vector<std::uint64_t> probes;
    for (int shift = 0; shift < 63; ++shift) {
        std::uint64_t base = 1ULL << shift;
        probes.push_back(base - 1);
        probes.push_back(base);
        probes.push_back(base + 1);
        probes.push_back(base + base / 3);
    }
    probes.push_back(~std::uint64_t{0});
    std::uint32_t prev_idx = 0;
    std::uint64_t prev_val = 0;
    for (std::uint64_t v : probes) {
        auto idx = Histogram::bucketIndex(v);
        EXPECT_LE(Histogram::bucketLo(idx), v) << "v=" << v;
        // The very top bucket's bound saturates (2^64 - 1 is
        // inclusive there); everywhere else hi is exclusive.
        EXPECT_GE(Histogram::bucketHi(idx), v) << "v=" << v;
        if (v != ~std::uint64_t{0}) {
            EXPECT_GT(Histogram::bucketHi(idx), v) << "v=" << v;
        }
        if (v > prev_val) {
            EXPECT_GE(idx, prev_idx) << "v=" << v;
        }
        prev_idx = idx;
        prev_val = v;
    }
}

TEST(HistogramTest, AdjacentBucketsTile)
{
    // hi(i) == lo(i+1) across the linear/log seam and octave seams.
    for (std::uint32_t idx = 0; idx < 600; ++idx)
        EXPECT_EQ(Histogram::bucketHi(idx),
                  Histogram::bucketLo(idx + 1))
            << "idx=" << idx;
}

TEST(HistogramTest, RelativeErrorBounded)
{
    // The log-linear layout guarantees bucket width <= lo / 32 for
    // all log buckets (kSubBits = 6), i.e. ~3.1% relative error.
    sim::Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        std::uint64_t v = rng.next() >> (rng.next() % 40);
        if (v < Histogram::kLinearMax)
            continue;
        auto idx = Histogram::bucketIndex(v);
        std::uint64_t lo = Histogram::bucketLo(idx);
        std::uint64_t width = Histogram::bucketHi(idx) - lo;
        EXPECT_LE(width, lo / (Histogram::kSubPerOctave / 2))
            << "v=" << v;
    }
}

TEST(HistogramTest, ExactPercentilesOnKnownDistribution)
{
    // 1..1000 each once: percentile(p) must equal the true p-th
    // value exactly in the linear region and within 3.1% above it.
    Histogram h(nullptr, "h", "t");
    for (std::uint64_t v = 1; v <= 1000; ++v)
        h.sample(v);
    EXPECT_EQ(h.count(), 1000u);
    EXPECT_EQ(h.sum(), 1000u * 1001u / 2);
    EXPECT_EQ(h.percentile(1), 10u);  // exact: 10 < 64
    EXPECT_EQ(h.percentile(5), 50u);  // exact
    for (double p : {25.0, 50.0, 90.0, 99.0, 99.9}) {
        auto expect = static_cast<std::uint64_t>(p * 10.0);
        std::uint64_t got = h.percentile(p);
        EXPECT_GE(got, expect - expect / 16) << "p=" << p;
        EXPECT_LE(got, expect + expect / 16) << "p=" << p;
    }
    EXPECT_EQ(h.min(), 1u);
    EXPECT_EQ(h.max(), 1000u);
}

TEST(HistogramTest, PercentileEdgeCases)
{
    Histogram h(nullptr, "h", "t");
    EXPECT_EQ(h.percentile(50), 0u); // empty
    h.sample(42);
    // A single sample is every percentile.
    EXPECT_EQ(h.percentile(0), 42u);
    EXPECT_EQ(h.percentile(50), 42u);
    EXPECT_EQ(h.percentile(100), 42u);
}

TEST(HistogramTest, MergeMatchesCombinedStream)
{
    sim::Rng rng(11);
    Histogram a(nullptr, "a", "t");
    Histogram b(nullptr, "b", "t");
    Histogram all(nullptr, "all", "t");
    for (int i = 0; i < 5000; ++i) {
        std::uint64_t v = rng.next() >> (rng.next() % 50);
        (i % 2 ? a : b).sample(v);
        all.sample(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_EQ(a.sum(), all.sum());
    EXPECT_EQ(a.min(), all.min());
    EXPECT_EQ(a.max(), all.max());
    EXPECT_EQ(a.buckets(), all.buckets());
    std::ostringstream ja, jall;
    a.json(ja);
    all.json(jall);
    EXPECT_EQ(ja.str(), jall.str());
}

TEST(HistogramTest, MergedPercentilesWithinBucketErrorBound)
{
    // The fleet plane reports p99 over histograms merged across
    // nodes. merge() is bucket-wise exact, so the only error left
    // against the true sorted-sample percentile is the bucket width
    // itself: at kSubBits = 6, width <= lo / 32, i.e. a 2/2^6 =
    // 3.125% relative bound (exact in the linear region).
    sim::Rng rng(17);
    Histogram shards[4] = {Histogram(nullptr, "s0", "t"),
                           Histogram(nullptr, "s1", "t"),
                           Histogram(nullptr, "s2", "t"),
                           Histogram(nullptr, "s3", "t")};
    std::vector<std::uint64_t> values;
    for (int i = 0; i < 20000; ++i) {
        std::uint64_t v = rng.next() >> (rng.next() % 44);
        values.push_back(v);
        shards[i % 4].sample(v);
    }
    Histogram merged(nullptr, "m", "t");
    for (Histogram &s : shards)
        merged.merge(s);
    ASSERT_EQ(merged.count(), values.size());

    std::sort(values.begin(), values.end());
    for (double p : {1.0, 10.0, 50.0, 90.0, 95.0, 99.0, 99.9}) {
        // Same rank convention as Histogram::percentile().
        auto rank = static_cast<std::uint64_t>(std::ceil(
            p / 100.0 * static_cast<double>(values.size())));
        rank = std::max<std::uint64_t>(
            1, std::min<std::uint64_t>(rank, values.size()));
        std::uint64_t exact = values[rank - 1];
        std::uint64_t got = merged.percentile(p);
        std::uint64_t diff =
            got > exact ? got - exact : exact - got;
        EXPECT_LE(diff * 32, exact)
            << "p=" << p << " exact=" << exact << " got=" << got;
    }
}

TEST(HistogramTest, MergeEmptyIsIdentity)
{
    Histogram a(nullptr, "a", "t");
    Histogram e(nullptr, "e", "t");
    a.sample(5);
    a.merge(e); // no-op
    EXPECT_EQ(a.count(), 1u);
    e.merge(a); // adopt
    EXPECT_EQ(e.count(), 1u);
    EXPECT_EQ(e.min(), 5u);
    EXPECT_EQ(e.max(), 5u);
}

TEST(HistogramTest, MoveKeepsTelemetryRegistration)
{
    // Mirror of the IOTLB-rebuild regression: stats that relocate
    // (vector growth, move assignment) must follow their telemetry
    // registration instead of leaving dangling pointers.
    sim::Telemetry t("sys");
    sim::TelemetryNode &n = t.node("svc");
    {
        std::vector<Histogram> v;
        v.emplace_back(&n, "h0", "first");
        v[0].sample(10);
        // Force reallocation: the moved-into objects must replace
        // their predecessors in the node's registry.
        for (int i = 1; i < 32; ++i)
            v.emplace_back(&n, ("h" + std::to_string(i)).c_str(),
                           "more");
        EXPECT_EQ(n.stats().size(), 32u);
        std::ostringstream os;
        t.dump(os);
        EXPECT_NE(os.str().find("svc.h0"), std::string::npos);
        EXPECT_NE(os.str().find("p50=10"), std::string::npos);
    }
    // All unregistered on destruction.
    EXPECT_EQ(n.stats().size(), 0u);
}

TEST(HistogramTest, JsonIsByteDeterministic)
{
    auto fill = [](Histogram &h) {
        sim::Rng rng(13);
        for (int i = 0; i < 3000; ++i)
            h.sample(rng.next() >> (rng.next() % 48));
    };
    Histogram a(nullptr, "a", "t");
    Histogram b(nullptr, "b", "t");
    fill(a);
    fill(b);
    std::ostringstream ja, jb;
    a.json(ja);
    b.json(jb);
    EXPECT_EQ(ja.str(), jb.str());
    // Integer-only payload: no floating-point formatting anywhere.
    EXPECT_EQ(ja.str().find('.'), std::string::npos);
    EXPECT_EQ(ja.str().find("e+"), std::string::npos);
}

TEST(HistogramTest, ResetClears)
{
    Histogram h(nullptr, "h", "t");
    h.sample(100);
    h.sample(1000000);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_TRUE(h.buckets().empty());
    std::ostringstream os;
    h.json(os);
    EXPECT_NE(os.str().find("\"buckets\": []"), std::string::npos);
}

} // namespace

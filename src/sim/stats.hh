/**
 * @file
 * A small statistics package: counters and histograms that register
 * themselves with a telemetry node so harnesses can dump the whole
 * tree (see sim/telemetry.hh).
 */

#ifndef OPTIMUS_SIM_STATS_HH
#define OPTIMUS_SIM_STATS_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace optimus::sim {

class TelemetryNode;

/**
 * Base class for all statistics.
 *
 * A stat registers itself with its TelemetryNode on construction and
 * unregisters on destruction, so a component that dies before the
 * tree is dumped never leaves a dangling pointer behind.  Stats are
 * movable (the registration follows the object) but not copyable.
 */
class Stat
{
  public:
    Stat(TelemetryNode *node, std::string name, std::string desc);
    Stat(const Stat &) = delete;
    Stat &operator=(const Stat &) = delete;
    Stat(Stat &&other) noexcept;
    Stat &operator=(Stat &&other) noexcept;
    virtual ~Stat();

    const std::string &name() const { return _name; }
    const std::string &desc() const { return _desc; }
    TelemetryNode *node() const { return _node; }

    void print(std::ostream &os) const;

    /** One human-readable line: "<prefix><name> <values> # <desc>". */
    virtual void printValue(std::ostream &os) const = 0;
    /** This stat's value(s) as a single JSON value, no newline. */
    virtual void json(std::ostream &os) const = 0;
    virtual void reset() = 0;

  private:
    TelemetryNode *_node = nullptr;
    std::string _name;
    std::string _desc;
};

/** A monotonically increasing event counter. */
class Counter : public Stat
{
  public:
    using Stat::Stat;

    Counter &operator+=(std::uint64_t n)
    {
        _value += n;
        return *this;
    }
    Counter &operator++()
    {
        ++_value;
        return *this;
    }
    std::uint64_t value() const { return _value; }

    void printValue(std::ostream &os) const override;
    void json(std::ostream &os) const override;
    void reset() override { _value = 0; }

  private:
    std::uint64_t _value = 0;
};

/**
 * Log-bucketed histogram over the full uint64 range (latencies,
 * sizes, queue depths).
 *
 * Bucketing is log-linear, HDR-style: values below 2^kSubBits land
 * in width-1 buckets (exact), every later power-of-two octave is
 * split into kSubPerOctave equal sub-buckets, so the relative
 * quantization error is bounded by 2 / 2^kSubBits (~3.1%) at any
 * magnitude. All state is integral, so merge(), percentile(), and
 * the JSON export are byte-deterministic for identical sample
 * streams.
 */
class Histogram : public Stat
{
  public:
    static constexpr std::uint32_t kSubBits = 6;
    /** Values below this are bucketed exactly (width-1 buckets). */
    static constexpr std::uint64_t kLinearMax = 1ULL << kSubBits;
    static constexpr std::uint32_t kSubPerOctave = 1u
                                                   << (kSubBits - 1);

    using Stat::Stat;

    void sample(std::uint64_t v);

    /** Fold @p other's samples into this histogram (same bucket
     *  layout by construction; counts, sum, min/max all combine). */
    void merge(const Histogram &other);

    std::uint64_t count() const { return _count; }
    std::uint64_t sum() const { return _sum; }
    std::uint64_t min() const { return _count ? _min : 0; }
    std::uint64_t max() const { return _count ? _max : 0; }
    double
    mean() const
    {
        return _count ? static_cast<double>(_sum) /
                            static_cast<double>(_count)
                      : 0.0;
    }

    /**
     * Value at percentile @p p in [0, 100]: the midpoint of the
     * bucket holding the ceil(p/100 * count)-th smallest sample
     * (exact for values < kLinearMax, where buckets have width 1).
     */
    std::uint64_t percentile(double p) const;

    std::uint64_t p50() const { return percentile(50); }
    std::uint64_t p95() const { return percentile(95); }
    std::uint64_t p99() const { return percentile(99); }
    std::uint64_t p999() const { return percentile(99.9); }

    /** Bucket index for a value (shared layout for all instances). */
    static std::uint32_t bucketIndex(std::uint64_t v);
    /** Inclusive lower bound of bucket @p idx. */
    static std::uint64_t bucketLo(std::uint32_t idx);
    /** Exclusive upper bound of bucket @p idx. */
    static std::uint64_t bucketHi(std::uint32_t idx);

    /** Bucket counts, sized to the highest bucket touched. */
    const std::vector<std::uint64_t> &buckets() const { return _bkts; }

    void printValue(std::ostream &os) const override;
    void json(std::ostream &os) const override;
    void reset() override;

  private:
    std::vector<std::uint64_t> _bkts;
    std::uint64_t _count = 0;
    std::uint64_t _sum = 0;
    std::uint64_t _min = 0;
    std::uint64_t _max = 0;
};

} // namespace optimus::sim

#endif // OPTIMUS_SIM_STATS_HH

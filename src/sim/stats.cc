#include "sim/stats.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"
#include "sim/telemetry.hh"

namespace optimus::sim {

Stat::Stat(TelemetryNode *node, std::string name, std::string desc)
    : _node(node), _name(std::move(name)), _desc(std::move(desc))
{
    if (_node)
        _node->registerStat(this);
}

Stat::Stat(Stat &&other) noexcept
    : _node(other._node),
      _name(std::move(other._name)),
      _desc(std::move(other._desc))
{
    if (_node) {
        _node->replaceStat(&other, this);
        other._node = nullptr;
    }
}

Stat &
Stat::operator=(Stat &&other) noexcept
{
    if (this != &other) {
        if (_node)
            _node->unregisterStat(this);
        _node = other._node;
        _name = std::move(other._name);
        _desc = std::move(other._desc);
        if (_node) {
            _node->replaceStat(&other, this);
            other._node = nullptr;
        }
    }
    return *this;
}

Stat::~Stat()
{
    if (_node)
        _node->unregisterStat(this);
}

void
Stat::print(std::ostream &os) const
{
    if (_node && !_node->path().empty())
        os << _node->path() << ".";
    os << _name << " ";
    printValue(os);
    os << " # " << _desc << "\n";
}

void
Counter::printValue(std::ostream &os) const
{
    os << _value;
}

void
Counter::json(std::ostream &os) const
{
    os << _value;
}

std::uint32_t
Histogram::bucketIndex(std::uint64_t v)
{
    if (v < kLinearMax)
        return static_cast<std::uint32_t>(v);
    // Octave of v (position of its highest set bit), then the top
    // kSubBits bits select the sub-bucket within the octave.
    auto msb = static_cast<std::uint32_t>(63 - __builtin_clzll(v));
    std::uint64_t sub = v >> (msb - (kSubBits - 1));
    return static_cast<std::uint32_t>(
        kLinearMax + (msb - kSubBits) * kSubPerOctave +
        (sub - kSubPerOctave));
}

std::uint64_t
Histogram::bucketLo(std::uint32_t idx)
{
    if (idx < kLinearMax)
        return idx;
    std::uint32_t r = idx - static_cast<std::uint32_t>(kLinearMax);
    std::uint32_t octave = kSubBits + r / kSubPerOctave;
    std::uint64_t sub = kSubPerOctave + r % kSubPerOctave;
    return sub << (octave - (kSubBits - 1));
}

std::uint64_t
Histogram::bucketHi(std::uint32_t idx)
{
    if (idx < kLinearMax)
        return idx + 1;
    std::uint32_t r = idx - static_cast<std::uint32_t>(kLinearMax);
    std::uint32_t octave = kSubBits + r / kSubPerOctave;
    std::uint64_t hi = bucketLo(idx) + (1ULL << (octave - (kSubBits - 1)));
    // The very top bucket's exclusive bound (2^64) is unrepresentable;
    // saturate so [lo, hi) still covers every sampleable value.
    return hi == 0 ? ~std::uint64_t{0} : hi;
}

void
Histogram::sample(std::uint64_t v)
{
    if (_count == 0) {
        _min = v;
        _max = v;
    } else {
        _min = std::min(_min, v);
        _max = std::max(_max, v);
    }
    ++_count;
    _sum += v;
    std::uint32_t idx = bucketIndex(v);
    if (idx >= _bkts.size())
        _bkts.resize(idx + 1, 0);
    ++_bkts[idx];
}

void
Histogram::merge(const Histogram &other)
{
    if (other._count == 0)
        return;
    if (_count == 0) {
        _min = other._min;
        _max = other._max;
    } else {
        _min = std::min(_min, other._min);
        _max = std::max(_max, other._max);
    }
    _count += other._count;
    _sum += other._sum;
    if (other._bkts.size() > _bkts.size())
        _bkts.resize(other._bkts.size(), 0);
    for (std::size_t i = 0; i < other._bkts.size(); ++i)
        _bkts[i] += other._bkts[i];
}

std::uint64_t
Histogram::percentile(double p) const
{
    if (_count == 0)
        return 0;
    auto rank = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(_count)));
    rank = std::max<std::uint64_t>(1, std::min(rank, _count));
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < _bkts.size(); ++i) {
        cum += _bkts[i];
        if (cum >= rank) {
            auto idx = static_cast<std::uint32_t>(i);
            std::uint64_t lo = bucketLo(idx);
            std::uint64_t width = bucketHi(idx) - lo;
            return lo + (width - 1) / 2;
        }
    }
    return _max;
}

void
Histogram::printValue(std::ostream &os) const
{
    os << "mean=" << mean() << " p50=" << p50() << " p95=" << p95()
       << " p99=" << p99() << " p999=" << p999()
       << " min=" << min() << " max=" << max() << " n=" << _count;
}

void
Histogram::json(std::ostream &os) const
{
    os << "{\"count\": " << _count << ", \"sum\": " << _sum
       << ", \"min\": " << min() << ", \"max\": " << max()
       << ", \"p50\": " << p50() << ", \"p95\": " << p95()
       << ", \"p99\": " << p99() << ", \"p999\": " << p999()
       << ", \"buckets\": [";
    bool first = true;
    for (std::size_t i = 0; i < _bkts.size(); ++i) {
        if (_bkts[i] == 0)
            continue;
        os << (first ? "" : ", ") << "["
           << bucketLo(static_cast<std::uint32_t>(i)) << ", "
           << _bkts[i] << "]";
        first = false;
    }
    os << "]}";
}

void
Histogram::reset()
{
    _bkts.clear();
    _count = 0;
    _sum = 0;
    _min = 0;
    _max = 0;
}

} // namespace optimus::sim

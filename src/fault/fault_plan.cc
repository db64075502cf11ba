#include "fault/fault_plan.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "sim/logging.hh"

namespace optimus::fault {

const char *
kindName(FaultDirective::Kind k)
{
    switch (k) {
      case FaultDirective::Kind::kHang:
        return "hang";
      case FaultDirective::Kind::kWedgeMmio:
        return "wedge_mmio";
      case FaultDirective::Kind::kDrop:
        return "drop";
      case FaultDirective::Kind::kDelay:
        return "delay";
      case FaultDirective::Kind::kIommuFault:
        return "iommu_fault";
      case FaultDirective::Kind::kPoisonIotlb:
        return "poison_iotlb";
      case FaultDirective::Kind::kWildDma:
        return "wild_dma";
      case FaultDirective::Kind::kWatchdog:
        return "watchdog";
    }
    return "unknown";
}

namespace {

[[noreturn]] void
bad(const std::string &what, const std::string &token)
{
    throw std::invalid_argument("fault plan: " + what + " '" + token +
                                "'");
}

FaultDirective::Kind
parseKind(const std::string &name)
{
    using K = FaultDirective::Kind;
    if (name == "hang")
        return K::kHang;
    if (name == "wedge_mmio")
        return K::kWedgeMmio;
    if (name == "drop")
        return K::kDrop;
    if (name == "delay")
        return K::kDelay;
    if (name == "iommu_fault")
        return K::kIommuFault;
    if (name == "poison_iotlb")
        return K::kPoisonIotlb;
    if (name == "wild_dma")
        return K::kWildDma;
    if (name == "watchdog")
        return K::kWatchdog;
    bad("unknown directive kind", name);
}

/** Parse an unsigned integer no larger than @p max (decimal, 0x hex
 *  or 0 octal). It must start with a digit: strtoull alone would take
 *  a sign and negate "-5" into a huge value, and it saturates an
 *  overflow silently. */
std::uint64_t
parseUint(const std::string &text,
          std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
        bad("malformed integer", text);
    char *end = nullptr;
    errno = 0;
    std::uint64_t v = std::strtoull(text.c_str(), &end, 0);
    if (*end != '\0')
        bad("malformed integer", text);
    if (errno == ERANGE || v > max)
        bad("integer out of range", text);
    return v;
}

/** Parse a slot or VM filter, which the directive keeps as an int32
 *  with -1 for "any". */
std::int32_t
parseIndex(const std::string &text)
{
    return static_cast<std::int32_t>(
        parseUint(text, std::numeric_limits<std::int32_t>::max()));
}

/** Parse a time: a number with an optional ns/us/ms/s suffix (bare
 *  numbers are raw ticks). NaN, infinities, negatives and times past
 *  the 64-bit tick range are rejected before the cast to Tick. */
sim::Tick
parseTime(const std::string &text)
{
    char *end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || !(v >= 0) || !std::isfinite(v))
        bad("malformed time", text);
    std::string suffix(end);
    double scale = 1.0;
    if (suffix == "ns")
        scale = static_cast<double>(sim::kTickNs);
    else if (suffix == "us")
        scale = static_cast<double>(sim::kTickUs);
    else if (suffix == "ms")
        scale = static_cast<double>(sim::kTickMs);
    else if (suffix == "s")
        scale = static_cast<double>(sim::kTickSec);
    else if (!suffix.empty())
        bad("unknown time suffix", text);
    const double ticks = v * scale;
    if (!(ticks < 0x1p64))
        bad("time out of range", text);
    return static_cast<sim::Tick>(ticks);
}

double
parseRate(const std::string &text)
{
    char *end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    // Written so that NaN, for which every comparison is false, fails.
    if (end == text.c_str() || *end != '\0' || !(v >= 0.0 && v <= 1.0))
        bad("rate must be a number in [0, 1]", text);
    return v;
}

FaultDirective
parseDirective(const std::string &text)
{
    FaultDirective d;

    std::string head = text;
    std::string args;
    if (auto colon = text.find(':'); colon != std::string::npos) {
        head = text.substr(0, colon);
        args = text.substr(colon + 1);
    }
    if (auto at = head.find('@'); at != std::string::npos) {
        d.slot = parseIndex(head.substr(at + 1));
        head = head.substr(0, at);
    }
    d.kind = parseKind(head);

    while (!args.empty()) {
        std::string kv = args;
        if (auto comma = args.find(','); comma != std::string::npos) {
            kv = args.substr(0, comma);
            args = args.substr(comma + 1);
        } else {
            args.clear();
        }
        auto eq = kv.find('=');
        if (eq == std::string::npos)
            bad("expected key=value", kv);
        std::string key = kv.substr(0, eq);
        std::string val = kv.substr(eq + 1);
        if (key == "at")
            d.at = parseTime(val);
        else if (key == "rate")
            d.rate = parseRate(val);
        else if (key == "seed")
            d.seed = parseUint(val);
        else if (key == "count")
            d.count = parseUint(val);
        else if (key == "extra")
            d.extra = parseTime(val);
        else if (key == "period")
            d.period = parseTime(val);
        else if (key == "set")
            d.set = static_cast<std::uint32_t>(
                parseUint(val, std::numeric_limits<std::uint32_t>::max()));
        else if (key == "deadline")
            d.deadline = parseTime(val);
        else if (key == "vm")
            d.vm = parseIndex(val);
        else
            bad("unknown key", key);
    }

    if (d.kind == FaultDirective::Kind::kWatchdog && d.deadline == 0)
        bad("watchdog requires deadline=", text);
    if (d.kind == FaultDirective::Kind::kDelay && d.extra == 0)
        bad("delay requires extra=", text);
    return d;
}

} // namespace

FaultPlan
FaultPlan::parse(const std::string &text)
{
    FaultPlan plan;
    std::string rest = text;
    while (!rest.empty()) {
        std::string tok = rest;
        if (auto semi = rest.find(';'); semi != std::string::npos) {
            tok = rest.substr(0, semi);
            rest = rest.substr(semi + 1);
        } else {
            rest.clear();
        }
        if (tok.empty())
            continue;
        plan._directives.push_back(parseDirective(tok));
    }
    return plan;
}

std::string
FaultPlan::summary() const
{
    std::string out;
    for (const FaultDirective &d : _directives) {
        if (!out.empty())
            out += ";";
        out += kindName(d.kind);
        if (d.slot >= 0)
            out += sim::strprintf("@%d", d.slot);
    }
    return out.empty() ? "none" : out;
}

} // namespace optimus::fault

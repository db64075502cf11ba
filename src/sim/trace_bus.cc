#include "sim/trace_bus.hh"

#include <algorithm>

#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace optimus::sim {

const char *
traceKindName(TraceKind k)
{
    switch (k) {
      case TraceKind::kDmaIssue:
        return "dma_issue";
      case TraceKind::kDmaComplete:
        return "dma";
      case TraceKind::kIotlbHit:
        return "iotlb_hit";
      case TraceKind::kIotlbMiss:
        return "iotlb_miss";
      case TraceKind::kIotlbEvict:
        return "iotlb_evict";
      case TraceKind::kMuxGrant:
        return "mux_grant";
      case TraceKind::kChannelSelect:
        return "channel_select";
      case TraceKind::kSchedPreempt:
        return "sched_preempt";
      case TraceKind::kFaultInject:
        return "fault_inject";
      case TraceKind::kWatchdogFire:
        return "watchdog_fire";
      case TraceKind::kSlotReset:
        return "slot_reset";
      case TraceKind::kDmaRetry:
        return "dma_retry";
      case TraceKind::kRingSubmit:
        return "ring_submit";
      case TraceKind::kRingComplete:
        return "ring_complete";
    }
    return "unknown";
}

std::uint32_t
TraceBus::registerComponent(const std::string &path)
{
    for (std::size_t i = 0; i < _paths.size(); ++i) {
        if (_paths[i] == path)
            return static_cast<std::uint32_t>(i);
    }
    _paths.push_back(path);
    return static_cast<std::uint32_t>(_paths.size() - 1);
}

void
TraceBus::attach(TraceSink *sink, std::uint32_t kind_mask)
{
    OPTIMUS_ASSERT(sink, "null trace sink");
    detach(sink);  // re-attach updates the mask
    _sinks.emplace_back(sink, kind_mask);
    _mask |= kind_mask;
}

void
TraceBus::detach(TraceSink *sink)
{
    _sinks.erase(std::remove_if(_sinks.begin(), _sinks.end(),
                                [&](const auto &p) {
                                    return p.first == sink;
                                }),
                 _sinks.end());
    _mask = 0;
    for (const auto &[s, mask] : _sinks)
        _mask |= mask;
}

void
TraceBus::emit(TraceRecord r)
{
    r.at = _eq.now();
    dispatch(r);
}

void
TraceBus::dispatch(const TraceRecord &r)
{
    ++_dispatched;
    const std::uint32_t bit = traceMask(r.kind);
    for (const auto &[sink, mask] : _sinks) {
        if (mask & bit)
            sink->record(*this, r);
    }
}

Tick
TraceBus::now() const
{
    return _eq.now();
}

std::uint32_t
traceComponent(const Scope &scope, const std::string &fallback)
{
    if (!scope.bus)
        return 0;
    if (scope.node && !scope.node->path().empty())
        return scope.bus->registerComponent(scope.node->path());
    return scope.bus->registerComponent(fallback);
}

} // namespace optimus::sim

#include "sim/trace_bus.hh"

#include <algorithm>

#include "sim/domain.hh"
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
    if (!_lanes.empty()) {
        if (const ExecContext *ctx = currentExecContext()) {
            r.at = ctx->queue->now();
            _lanes[ctx->domain].push_back(r);
            return;
        }
    }
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

void
TraceBus::armDomains(std::uint32_t domains)
{
    OPTIMUS_ASSERT(_lanes.empty() || _lanes.size() == domains,
                   "re-arming a TraceBus with a different domain "
                   "count");
    _lanes.resize(domains);
}

void
TraceBus::flushMerged()
{
    // Lanes fill only through emit(), which components reach through
    // wants() — so with no sink attached nothing was buffered, the
    // case at nearly every barrier of an untraced run. (The lanes
    // themselves belong to the workers; a shared fill counter would
    // race between them.)
    if (_lanes.empty() || _mask == 0)
        return;
    // Successive flushes cover increasing tick ranges (an epoch's
    // emissions precede the next epoch's, except that a domain whose
    // window a guest call's stop request ended early resumes below
    // its peers' window end), so a sorted merge per flush yields an
    // ordered stream that is the same at every pool size. The key is
    // (tick, component, domain, lane seq): each registered component
    // lives in exactly one domain, so ordering by component first
    // makes the merged stream independent of which domain a
    // component was placed in. Unregistered records (comp 0) fall
    // back to the (domain, seq) tie-break.
    struct Ref
    {
        Tick at;
        std::uint32_t comp;
        std::uint32_t domain;
        std::uint32_t idx;
    };
    std::vector<Ref> order;
    for (std::uint32_t d = 0; d < _lanes.size(); ++d)
        for (std::uint32_t i = 0; i < _lanes[d].size(); ++i)
            order.push_back(
                Ref{_lanes[d][i].at, _lanes[d][i].comp, d, i});
    if (order.empty())
        return;
    std::sort(order.begin(), order.end(),
              [](const Ref &a, const Ref &b) {
                  if (a.at != b.at)
                      return a.at < b.at;
                  if (a.comp != b.comp)
                      return a.comp < b.comp;
                  if (a.domain != b.domain)
                      return a.domain < b.domain;
                  return a.idx < b.idx;
              });
    for (const Ref &r : order)
        dispatch(_lanes[r.domain][r.idx]);
    for (auto &lane : _lanes)
        lane.clear();
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

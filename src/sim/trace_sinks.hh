/**
 * @file
 * Stock trace-bus sinks: an in-memory collector (tests, ad-hoc
 * analysis) and a Chrome-trace/Perfetto JSON exporter keyed by
 * component path.  Any number of sinks can observe one bus.
 */

#ifndef OPTIMUS_SIM_TRACE_SINKS_HH
#define OPTIMUS_SIM_TRACE_SINKS_HH

#include <ostream>
#include <vector>

#include "sim/trace_bus.hh"

namespace optimus::sim {

/** Buffers every record it sees.  Attach with any mask. */
class CollectSink : public TraceSink
{
  public:
    void
    record(const TraceBus &, const TraceRecord &r) override
    {
        _records.push_back(r);
    }

    const std::vector<TraceRecord> &records() const { return _records; }
    void clear() { _records.clear(); }

  private:
    std::vector<TraceRecord> _records;
};

/**
 * Buffers records and writes them as a Chrome trace ("catapult" JSON
 * array format, loadable in chrome://tracing or ui.perfetto.dev).
 *
 * Mapping: one process per bus; one thread per component, named by
 * its telemetry path.  Kinds with a duration (kDmaComplete,
 * kSchedPreempt) become "X" complete events spanning [start, at];
 * the rest become "i" instant events.  Timestamps are microseconds
 * of simulated time.
 */
class ChromeTraceSink : public TraceSink
{
  public:
    /** Attaches itself to @p bus for @p kind_mask; detaches in the
     *  destructor. */
    explicit ChromeTraceSink(TraceBus &bus,
                             std::uint32_t kind_mask = kAllTraceKinds);
    ~ChromeTraceSink() override;

    void record(const TraceBus &bus, const TraceRecord &r) override;

    /** Write the full trace document. */
    void write(std::ostream &os) const;

    std::size_t size() const { return _records.size(); }

  private:
    TraceBus &_bus;
    std::vector<TraceRecord> _records;
};

} // namespace optimus::sim

#endif // OPTIMUS_SIM_TRACE_SINKS_HH

/**
 * @file
 * Multi-sink structured trace bus: the event half of the
 * observability spine (sim/telemetry.hh is the counter half).
 *
 * Components emit fixed-size typed TraceRecords; any number of sinks
 * subscribe with a per-kind mask.  The disabled path is branch-cheap
 * and allocation-free: a component does
 *
 *     if (_trace && _trace->wants(TraceKind::kDmaIssue))
 *         _trace->emit({...});     // stack POD, no allocation
 *
 * and with no sink attached the bus mask is 0, so the cost is one
 * pointer test plus one load-and-test.  emit() never schedules
 * simulation events, so attaching sinks cannot perturb timing or
 * result fingerprints.
 *
 * Components are identified by a small integer id mapped to their
 * telemetry path (registerComponent), so records stay POD.
 */

#ifndef OPTIMUS_SIM_TRACE_BUS_HH
#define OPTIMUS_SIM_TRACE_BUS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/telemetry.hh"
#include "sim/types.hh"

namespace optimus::sim {

class EventQueue;

/** Every structured record kind carried by the bus. */
enum class TraceKind : std::uint8_t {
    kDmaIssue = 0,   ///< accelerator DMA port issued a transaction
    kDmaComplete,    ///< shell delivered the response (start=issue)
    kIotlbHit,       ///< IOTLB lookup hit
    kIotlbMiss,      ///< IOTLB lookup missed
    kIotlbEvict,     ///< IOTLB conflict eviction on insert
    kMuxGrant,       ///< mux-tree node granted a child port (arg)
    kChannelSelect,  ///< channel selector picked a link (arg)
    kSchedPreempt,   ///< scheduler switched a slot away from a vaccel
    kFaultInject,    ///< fault plane injected a failure
    kWatchdogFire,   ///< hypervisor watchdog quarantined a vaccel
    kSlotReset,      ///< VCU reset-table slot reset issued
    kDmaRetry,       ///< shell re-issued a dropped CCI-P response
    kRingSubmit,     ///< guest published submit entries to its ring
    kRingComplete,   ///< device posted a completion into the ring
};

inline constexpr std::size_t kNumTraceKinds = 14;

constexpr std::uint32_t
traceMask(TraceKind k)
{
    return std::uint32_t(1) << static_cast<unsigned>(k);
}

inline constexpr std::uint32_t kAllTraceKinds =
    (std::uint32_t(1) << kNumTraceKinds) - 1;

const char *traceKindName(TraceKind k);

/** Owner id meaning "not attributed to any VM / process". */
inline constexpr std::uint16_t kNoOwner = 0xffff;

/** TraceRecord::flags bits. */
inline constexpr std::uint8_t kTraceWrite = 1 << 0;
inline constexpr std::uint8_t kTraceError = 1 << 1;

/**
 * One fixed-size structured record.  Interpretation of addr/arg by
 * kind:
 *  - kDmaIssue/kDmaComplete: addr=iova (issue: gva), arg=bytes,
 *    start=issue tick (complete only)
 *  - kIotlbHit/Miss/Evict:   addr=iova, arg=set index
 *  - kMuxGrant:              addr=iova, arg=child port granted
 *  - kChannelSelect:         addr=iova, arg=physical link (0/1/2)
 *  - kSchedPreempt:          addr=outgoing vaccel id, arg=slot,
 *                            start=tick the slice began
 *  - kFaultInject:           addr=kind-specific target (slot, iova,
 *                            set), arg=directive index in the plan
 *  - kWatchdogFire:          addr=vaccel id, arg=slot
 *  - kSlotReset:             addr=slot, arg=reset-table mask
 *  - kDmaRetry:              addr=iova, arg=retry ordinal,
 *                            start=original issue tick
 *  - kRingSubmit:            addr=vaccel id, arg=published prod seq
 *  - kRingComplete:          addr=vaccel id, arg=completion seq
 */
struct TraceRecord {
    Tick at = 0;     ///< stamped by TraceBus::emit
    Tick start = 0;  ///< interval start, if the kind has a duration
    std::uint64_t addr = 0;
    std::uint64_t arg = 0;
    std::uint32_t comp = 0;  ///< component id (TraceBus::componentPath)
    std::uint16_t tag = 0;   ///< auditor / mux port tag
    std::uint16_t vm = kNoOwner;
    std::uint16_t proc = kNoOwner;
    TraceKind kind = TraceKind::kDmaIssue;
    std::uint8_t flags = 0;
};

class TraceBus;

/** A trace consumer; attach to a bus with a kind mask. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    virtual void record(const TraceBus &bus, const TraceRecord &r) = 0;
};

/**
 * The bus: fans emitted records out to the attached sinks whose mask
 * includes the record's kind.  One bus per hv::System — never shared
 * across threads.
 */
class TraceBus
{
  public:
    explicit TraceBus(EventQueue &eq) : _eq(eq)
    {
        _paths.emplace_back();  // id 0: unknown component
    }
    TraceBus(const TraceBus &) = delete;
    TraceBus &operator=(const TraceBus &) = delete;

    /** Intern a component path; same path returns the same id. */
    std::uint32_t registerComponent(const std::string &path);
    const std::string &
    componentPath(std::uint32_t id) const
    {
        return _paths[id];
    }

    void attach(TraceSink *sink,
                std::uint32_t kind_mask = kAllTraceKinds);
    void detach(TraceSink *sink);

    /** True iff some sink wants this kind.  The fast-path guard. */
    bool
    wants(TraceKind k) const
    {
        return (_mask & traceMask(k)) != 0;
    }

    /**
     * Stamp r.at with the current tick and dispatch to sinks, inside
     * the emitting event. Every node of a fleet has its own bus over
     * the cluster's one queue, so each sink sees its node's records
     * in execution order.
     */
    void emit(TraceRecord r);

    Tick now() const;

    /** Total records dispatched (0 while no sink is attached, since
     *  emit() is guarded by wants()). */
    std::uint64_t dispatched() const { return _dispatched; }

  private:
    void dispatch(const TraceRecord &r);

    EventQueue &_eq;
    std::uint32_t _mask = 0;
    std::uint64_t _dispatched = 0;
    std::vector<std::pair<TraceSink *, std::uint32_t>> _sinks;
    std::vector<std::string> _paths;
};

/**
 * Resolve the component id for a scope: its telemetry path when the
 * scope carries a node, else @p fallback.  Returns 0 (unknown) when
 * the scope has no bus.
 */
std::uint32_t traceComponent(const Scope &scope,
                             const std::string &fallback);

} // namespace optimus::sim

#endif // OPTIMUS_SIM_TRACE_BUS_HH

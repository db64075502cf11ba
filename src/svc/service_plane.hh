/**
 * @file
 * The multi-tenant request service plane: turns the repo's one-shot
 * guest jobs into sustained request streams with queueing, admission
 * control, batching dispatch, and tail-latency/SLO accounting.
 *
 * Each tenant owns a guest VM, one or more virtual accelerators
 * (workers) on its physical slot, a bounded request queue fed by a
 * deterministic traffic generator (open-loop) or a fixed population
 * of users (closed-loop), and a telemetry subtree of counters and
 * log-bucketed latency histograms under "sys.svc.<name>".
 *
 * Substitution rationale: where a production deployment would accept
 * requests from the network, here arrivals are synthesized by
 * svc::ArrivalGen and each request re-issues the tenant's prepared
 * hv::workload job (START from Done/Error re-runs the cached
 * registers). Everything downstream of admission — MMIO traps,
 * scheduling, context switches, DMA, faults — is the real simulated
 * stack, so p99-vs-load curves measure OPTIMUS itself, not a model
 * of it.
 *
 * Event-time dispatch: the plane acts inside the handler of the event
 * that makes the work possible — an arrival dispatches when it is
 * admitted, an MMIO completion doorbell or a ring completion post
 * settles its requests and refills the worker, and one event at the
 * horizon serves the partial batches left queued. So a dispatch waits
 * only for the modelled daemon, never for a fleet's barrier. Handlers
 * never pump: START and ring publish are asynchronous, and verify()
 * is untimed.
 */

#ifndef OPTIMUS_SVC_SERVICE_PLANE_HH
#define OPTIMUS_SVC_SERVICE_PLANE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "hv/system.hh"
#include "hv/workloads.hh"
#include "ring/ring.hh"
#include "svc/traffic.hh"

namespace optimus::fleet {
class Cluster;
} // namespace optimus::fleet

namespace optimus::svc {

/** Everything configurable about one tenant. */
struct TenantConfig
{
    std::string name = "tenant";
    std::string app = "SHA";      ///< hv::workload application
    std::uint64_t bytes = 4096;   ///< per-request job input size
    std::uint64_t seed = 1;       ///< workload + traffic seed
    std::uint32_t slot = 0;       ///< physical accelerator slot
    unsigned vaccels = 1;         ///< workers (virtual accelerators)

    /** Open-loop arrivals; ignored when users > 0. */
    ArrivalSpec arrivals;
    /** Closed-loop population size; 0 selects open-loop mode. */
    unsigned users = 0;
    /** Closed-loop think time between completion and re-arrival. */
    sim::Tick think = 0;

    std::size_t queueDepth = 64; ///< admission-control bound
    /** Hold dispatch until this many requests are queued (only while
     *  new arrivals can still come; the horizon event and the drain
     *  serve whatever is left). */
    unsigned batchMin = 1;
    /** Consecutive requests a worker serves per batch; keeping the
     *  vaccel busy back-to-back amortizes the 38us context switch. */
    unsigned batchMax = 1;
    /** Issue attempts per request before it is dropped (> 1 lets a
     *  tenant ride out watchdog quarantines). */
    unsigned maxAttempts = 3;
    /** End-to-end SLO target in nanoseconds; 0 disables SLO
     *  accounting (every completion counts as goodput). */
    std::uint64_t sloNs = 0;

    /** Command path: trapped MMIO doorbells (the paper's baseline)
     *  or polled shared-memory rings (DESIGN.md §14). */
    ring::CmdPath cmdPath = ring::CmdPath::kMmio;
    /** Ring slots per worker; 0 sizes automatically from batchMax
     *  (ring::defaultEntries). Ignored on the MMIO path. */
    std::uint32_t ringEntries = 0;
};

/** One admitted request waiting in or moving through the plane. */
struct Request
{
    std::uint64_t id = 0;
    sim::Tick arrival = 0;  ///< admission tick
    unsigned attempts = 0;  ///< issue attempts so far
    int user = -1;          ///< closed-loop user index, -1 open-loop
};

/** Ring path: one issued-but-uncompleted request per submit entry.
 *  A migration parcel carries a worker's queue of these whole. */
struct Inflight
{
    Request req;
    sim::Tick issued = 0;
    std::uint64_t seq = 0;
};

class ServicePlane;

/** One tenant: queue, workers, generator, and its stat subtree. */
class Tenant
{
  public:
    Tenant(const Tenant &) = delete;
    Tenant &operator=(const Tenant &) = delete;

    const TenantConfig &config() const { return _cfg; }
    const std::string &name() const { return _cfg.name; }

    /**
     * Lifecycle of this binding within its plane. Solo planes only
     * ever see kActive; the other states exist for fleet-level
     * migration, where one logical tenant has a binding on every
     * node and at most one is active.
     *
     * kActive   — arrivals admitted, queue dispatched (the normal
     *             state).
     * kFrozen   — dispatch stopped but arrivals still queue (the
     *             migration freeze: queued work will travel with the
     *             parcel).
     * kDetached — the stream has left this node: arrival events that
     *             still fire here are forwarded to the plane's
     *             stray-arrival sink instead of being admitted.
     */
    enum class Mode
    {
        kActive,
        kFrozen,
        kDetached,
    };
    Mode mode() const { return _mode; }

    // --- counters (exposed for tests and benches) ---
    std::uint64_t arrivals() const { return _arrivals.value(); }
    std::uint64_t admitted() const { return _admitted.value(); }
    std::uint64_t rejected() const { return _rejected.value(); }
    std::uint64_t completed() const { return _completed.value(); }
    std::uint64_t errors() const { return _errors.value(); }
    std::uint64_t retries() const { return _retries.value(); }
    std::uint64_t dropped() const { return _dropped.value(); }
    std::uint64_t batches() const { return _batches.value(); }
    std::uint64_t sloViolations() const
    {
        return _sloViolations.value();
    }
    std::uint64_t goodput() const { return _goodput.value(); }
    std::uint64_t verifyFailures() const
    {
        return _verifyFailures.value();
    }

    // --- latency histograms (integer nanoseconds) ---
    const sim::Histogram &queueHist() const { return _queueNs; }
    const sim::Histogram &serviceHist() const { return _serviceNs; }
    const sim::Histogram &e2eHist() const { return _e2eNs; }

    std::size_t queueLength() const { return _queue.size(); }

    std::size_t numWorkers() const { return _workers.size(); }
    /** Worker @p w's virtual accelerator — the handle benches use to
     *  apply per-tenant policy knobs (weight, priority). */
    hv::VirtualAccel &vaccel(std::size_t w) const
    {
        return _workers[w]->handle->vaccel();
    }

  private:
    friend class ServicePlane;
    friend class optimus::fleet::Cluster;

    /** One virtual accelerator serving this tenant's queue. */
    struct Worker
    {
        hv::AccelHandle *handle = nullptr;
        std::unique_ptr<hv::workload::Workload> wl;
        bool busy = false;
        Request cur;
        sim::Tick issued = 0;
        unsigned batchLeft = 0; ///< remaining requests in this batch

        /** Ring path: issued-but-uncompleted requests, oldest
         *  first (completions post in order). */
        std::deque<Inflight> inflight;
    };

    Tenant(const TenantConfig &cfg, sim::TelemetryNode *node);

    TenantConfig _cfg;
    Mode _mode = Mode::kActive;
    std::unique_ptr<ArrivalGen> _gen; ///< open-loop only
    std::deque<Request> _queue;
    std::vector<std::unique_ptr<Worker>> _workers;
    std::uint64_t _nextId = 0;
    sim::Tick _epoch = 0;

    sim::Counter _arrivals;
    sim::Counter _admitted;
    sim::Counter _rejected;
    sim::Counter _completed;
    sim::Counter _errors;
    sim::Counter _retries;
    sim::Counter _dropped;
    sim::Counter _batches;
    sim::Counter _sloViolations;
    sim::Counter _goodput;
    sim::Counter _verifyFailures;
    sim::Histogram _queueNs;
    sim::Histogram _serviceNs;
    sim::Histogram _e2eNs;
};

/**
 * The service plane over one hv::System. Add tenants, then run() a
 * traffic window: arrivals are admitted (or rejected) against each
 * tenant's bounded queue, dispatched in batches onto its workers,
 * and accounted into per-tenant latency histograms and SLO counters.
 * After the window the plane drains: queued requests still complete,
 * no new ones arrive.
 */
class ServicePlane
{
  public:
    explicit ServicePlane(hv::System &sys);

    /** Create a tenant: its VM, workers, and prepared workloads. */
    Tenant &addTenant(const TenantConfig &cfg);

    /**
     * Generate and serve traffic for @p window ticks, then drain.
     * Callable repeatedly; each call opens a fresh arrival window.
     * Fatal if the event set drains with requests still queued or in
     * flight: no event is left to serve them.
     */
    void run(sim::Tick window);

    /**
     * External-drive form of run(): open the arrival window (seed
     * generators and closed-loop populations, and schedule the
     * horizon event that serves leftover partial batches) without
     * pumping. An embedder sharing one queue across several planes
     * (fleet::Cluster) calls beginWindow() on every plane, then runs
     * the queue itself; the planes dispatch in their own event
     * handlers.
     */
    void beginWindow(sim::Tick window);

    /** No queued requests and no busy workers (the drain test). */
    bool idle() const;

    /** Tick at which the current arrival window closes. */
    sim::Tick horizon() const { return _horizon; }

    /**
     * Sink for arrivals that fire on a kDetached tenant (its stream
     * migrated to another node): receives the tenant binding and the
     * closed-loop user index (-1 for an open-loop arrival). The
     * fleet layer re-injects them on the tenant's current node.
     * Runs in event-callback context: record only, never pump.
     */
    void setStrayArrivalSink(
        std::function<void(Tenant &, int)> sink)
    {
        _straySink = std::move(sink);
    }

    /** Re-admit a forwarded arrival into @p t on this plane and
     *  dispatch it: a closed-loop user (with backoff/retirement
     *  semantics) or, for user == -1, one open-loop request. */
    void injectArrival(Tenant &t, int user);

    /** Restart @p t's open-loop arrival chain after a migration
     *  handed its generator to this binding. */
    void resumeOpenArrivals(Tenant &t);

    std::size_t numTenants() const { return _tenants.size(); }
    Tenant &tenant(std::size_t i) { return *_tenants[i]; }
    const Tenant &tenant(std::size_t i) const { return *_tenants[i]; }

    /**
     * FNV-1a digest of every tenant's deterministic state: counters,
     * histogram contents, bucket layout. Two runs with identical
     * configs and seeds produce identical fingerprints, bit-for-bit,
     * regardless of host, wall-clock, or worker-thread count.
     */
    std::uint64_t fingerprint() const;

    hv::System &system() { return _sys; }

  private:
    friend class optimus::fleet::Cluster;

    void scheduleOpenArrival(Tenant &t);
    void onOpenArrival(Tenant &t);
    void onClosedArrival(Tenant &t, int user);
    /** Admit one arrival into @p t's queue and dispatch it. */
    bool admit(Tenant &t, int user);

    /** Worker @p w's completion handler: settle what finished (the
     *  MMIO job, or every entry posted to the ring), then refill. */
    void onCompletion(Tenant &t, Tenant::Worker &w, accel::Status st);
    /** Settle @p w's in-flight MMIO request as finished with @p st. */
    void complete(Tenant &t, Tenant::Worker &w, accel::Status st);
    /** Issue @p t's queued requests onto its idle workers (and ring
     *  slots), honouring batchMin while the window is open. */
    void dispatch(Tenant &t);
    /** Shared completion accounting for both command paths. */
    void settle(Tenant &t, Tenant::Worker &w, const Request &req,
                accel::Status st, sim::Tick issued,
                sim::Tick done_tick);
    /** Inside run()'s drain, stop its pump once the window has closed
     *  and the plane is idle (the horizon event, each completion). */
    void stopIfDrained();

    hv::System &_sys;
    sim::TelemetryNode *_node; ///< "sys.svc"
    std::vector<std::unique_ptr<Tenant>> _tenants;
    std::vector<std::unique_ptr<hv::AccelHandle>> _handles;
    std::function<void(Tenant &, int)> _straySink;
    sim::Tick _horizon = 0; ///< arrivals stop at this tick
    bool _draining = false; ///< run() is pumping its drain
};

} // namespace optimus::svc

#endif // OPTIMUS_SVC_SERVICE_PLANE_HH

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
 * Re-entrancy contract: completion handlers (which run inside event
 * callbacks) only record facts; every synchronous guest-API call
 * (START, verify) happens in the top-level pump() loop, matching the
 * guest API's requirement that the event queue is never pumped from
 * within an event.
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
     *  new arrivals can still come; drains are never gated). */
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
        // Completion-handler mailbox: the handler (an event
        // callback) only records; pump() consumes at top level.
        bool done = false;
        accel::Status doneStatus = accel::Status::kIdle;
        sim::Tick doneTick = 0;

        /** Ring path: issued-but-uncompleted requests, oldest
         *  first (completions post in order). */
        std::deque<Inflight> inflight;
    };

    Tenant(ServicePlane &plane, std::size_t index,
           const TenantConfig &cfg, sim::TelemetryNode *node);

    /** Work a pump() visit would act on: a consumable done mailbox
     *  on a busy worker, an in-flight ring entry, or a queued request
     *  with an idle worker on an active binding. A tenant whose
     *  workers are all busy on MMIO jobs has none until a completion
     *  doorbell fills a mailbox. */
    bool pending() const;

    ServicePlane &_plane;
    std::size_t _index; ///< position in the plane (its ready bit)
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
     */
    void run(sim::Tick window);

    /**
     * External-drive form of run(): open the arrival window (seed
     * generators and closed-loop populations) without pumping. An
     * embedder sharing one scheduler across several planes
     * (fleet::Cluster) calls beginWindow() on every plane, then
     * drives the shared scheduler itself, calling pump() on each
     * plane at every epoch barrier.
     */
    void beginWindow(sim::Tick window);

    /** Fixpoint over the ready tenants (those with pending work, see
     *  markReady()), in index order: consume completion mailboxes
     *  and issue queued requests until nothing changes. A tenant
     *  outside the ready set has nothing a visit would act on, so
     *  skipping it changes no result. Must only be called at top
     *  level / an epoch barrier, never from an event callback. */
    void pump();

    /** No queued requests and no busy workers (the drain test). */
    bool idle() const;

    /** Whether any tenant is in the ready set: pump() has nothing to
     *  visit otherwise. */
    bool
    anyReady() const
    {
        for (std::uint64_t w : _ready)
            if (w != 0)
                return true;
        return false;
    }
    /** Whether tenant @p i is in the ready set. */
    bool
    isReady(std::size_t i) const
    {
        return (_ready[i >> 6] >> (i & 63)) & 1;
    }

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

    /** Re-admit a forwarded arrival into @p t on this plane: a
     *  closed-loop user (with backoff/retirement semantics) or, for
     *  user == -1, one open-loop request. */
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
    bool admit(Tenant &t, int user);

    bool drainCompletions(Tenant &t);
    bool dispatch(Tenant &t);
    /** Shared completion accounting for both command paths. */
    void settle(Tenant &t, Tenant::Worker &w, const Request &req,
                accel::Status st, sim::Tick issued,
                sim::Tick done_tick);

    /**
     * Put @p t in the ready set. Every path that gives a tenant
     * pending work calls this: admit(), the MMIO completion handler
     * (which also frees a busy worker for the queue behind it), and
     * fleet::Cluster::importParcel (the only path back to kActive).
     * Only this plane's hv-domain events and the barrier write the
     * set, so it needs no lock.
     */
    void
    markReady(const Tenant &t)
    {
        _ready[t._index >> 6] |= 1ULL << (t._index & 63);
    }
    /** First ready tenant at or after @p i; numTenants() if none. */
    std::size_t nextReady(std::size_t i) const;

    hv::System &_sys;
    sim::TelemetryNode *_node; ///< "sys.svc"
    std::vector<std::unique_ptr<Tenant>> _tenants;
    /** Ready set, one bit per tenant index. A bit is cleared only by
     *  a pump() visit that leaves its tenant without pending work
     *  (Tenant::pending). */
    std::vector<std::uint64_t> _ready;
    std::vector<std::unique_ptr<hv::AccelHandle>> _handles;
    std::function<void(Tenant &, int)> _straySink;
    sim::Tick _horizon = 0; ///< arrivals stop at this tick
};

} // namespace optimus::svc

#endif // OPTIMUS_SVC_SERVICE_PLANE_HH

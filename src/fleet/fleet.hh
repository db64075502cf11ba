/**
 * @file
 * The fleet plane: N FPGA nodes (each a full hv::System) behind one
 * global scheduler, with cross-node live tenant migration.
 *
 * Topology: one sim::DomainSet holds one domain per node (node i is
 * domain i), driven by a single sim::EpochScheduler — so
 * `--sim-threads` parallelizes across nodes. Node-to-node links are
 * sim::Channels between the nodes' domains at configurable rack /
 * inter-rack latency; since every link latency is at least the
 * intra-node interconnect latency, the epoch schedule (and therefore
 * byte-determinism across pool widths) is unchanged by clustering.
 *
 * Tenancy: a fleet tenant is one logical svc tenant with a *binding*
 * (VM + workers + programmed workload) on every node, created in
 * identical order so guest-virtual layouts match across nodes; at
 * most one binding is active. Migration freezes the active binding
 * (arrivals still queue, dispatch stops), detaches each worker's job
 * through OptimusHv::exportContext() — the PR 4/6 preemption path:
 * drain, device-state save to the guest buffer, SAVED doorbell, or
 * forced reset with ERR_STATUS on timeout — then ships a parcel
 * (contexts, queued requests, worker DMA-window images including the
 * saved blobs, and the arrival generator) over the link channel at
 * the configured bandwidth. The destination imports at an epoch
 * barrier and the service stream continues there; the freeze-to-
 * reactivation gap is recorded per move in the blackout histogram.
 *
 * Determinism contract: all fleet logic — routing, rebalancing,
 * export retries, parcel assembly and import — runs at epoch
 * barriers (where no domain executes) or inside single-domain event
 * callbacks that only append to per-node inboxes; every scan runs in
 * index order with deterministic tie-breaks. Fleet results are
 * byte-identical across --sim-threads and --jobs.
 */

#ifndef OPTIMUS_FLEET_FLEET_HH
#define OPTIMUS_FLEET_FLEET_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "hv/system.hh"
#include "svc/service_plane.hh"

namespace optimus::fleet {

class Cluster;

/** Fleet routing / rebalancing policies. */
enum class Policy
{
    kLeastLoaded, ///< balance queue+busy load across all nodes
    kLocality,    ///< like kLeastLoaded, but a tenant never leaves
                  ///< its home rack
    kSloAware,    ///< move the worst live-p99 SLO violator first
};

const char *policyName(Policy p);
/** Parse "least-loaded" / "locality" / "slo-aware" (fatal on other
 *  input, listing the choices). */
Policy parsePolicy(const std::string &s);

/** One logical tenant of the fleet. */
struct FleetTenantSpec
{
    svc::TenantConfig svc; ///< per-binding service config
    unsigned homeRack = 0; ///< locality affinity (kLocality)
};

/** Everything configurable about a cluster. */
struct ClusterConfig
{
    unsigned nodes = 2; ///< at least one
    /** Nodes per rack: rack(n) = n / nodesPerRack. */
    unsigned nodesPerRack = 4;
    sim::Tick rackLinkLatency = 2 * sim::kTickUs;
    sim::Tick interRackLinkLatency = 10 * sim::kTickUs;
    /** Migration payload bandwidth on the node links. */
    double migrationGbps = 100.0;
    /** Per-node platform template; node i runs this config on
     *  domain i. */
    hv::PlatformConfig node;

    Policy policy = Policy::kLeastLoaded;
    /** Rebalance cadence; 0 disables automatic rebalancing (forced
     *  migrations via migrateTenant()/setBarrierProbe() still work). */
    sim::Tick rebalanceInterval = 200 * sim::kTickUs;
    /** Minimum settle time between migrations of one tenant. */
    sim::Tick migrationCooldown = 400 * sim::kTickUs;
    /** Queue+busy load gap that triggers a rebalancing move. */
    std::uint64_t loadImbalanceThreshold = 4;
};

/** Everything one tenant needs to continue on another node. */
struct MigrationParcel
{
    std::size_t tenant = 0;
    unsigned srcNode = 0;
    unsigned dstNode = 0;
    sim::Tick freezeTick = 0;
    std::uint64_t bytes = 0; ///< modeled payload size

    struct WorkerState
    {
        hv::VaccelContext ctx;
        bool busy = false;
        svc::Request cur;
        sim::Tick issued = 0;
        unsigned batchLeft = 0;
        std::uint64_t windowBase = 0;
        /** Registered DMA-window image — carries the job data *and*
         *  the device blob the preemption path saved into it (and,
         *  for ring tenants, the ring contents and cursors). */
        std::vector<std::uint8_t> memory;
        /** Ring path: issued-but-uncompleted requests, oldest
         *  first. */
        std::deque<svc::Inflight> inflight;
    };
    std::vector<WorkerState> workers;

    std::deque<svc::Request> queue;
    std::unique_ptr<svc::ArrivalGen> gen;
    std::uint64_t nextId = 0;
};
using ParcelPtr = std::shared_ptr<MigrationParcel>;

/**
 * The pluggable routing brain: initial placement for new tenants and
 * one candidate move per rebalance tick. Pure decision logic — the
 * Cluster owns the mechanics (freeze, export, parcel, import) — so
 * policies stay a few dozen deterministic lines each.
 */
class GlobalScheduler
{
  public:
    GlobalScheduler(Cluster &cluster, Policy policy);

    Policy policy() const { return _policy; }

    /** Node for a new tenant (deterministic; lowest index wins
     *  ties). kLocality restricts to the spec's home rack. */
    unsigned place(const FleetTenantSpec &spec);

    struct Move
    {
        std::size_t tenant;
        unsigned dst;
    };

    /** Called at each rebalance tick: at most one migration. */
    std::optional<Move> rebalance(sim::Tick now);

  private:
    unsigned leastLoadedIn(const std::vector<std::uint64_t> &load,
                           unsigned lo, unsigned hi,
                           unsigned exclude) const;

    Cluster &_c;
    Policy _policy;
    std::vector<unsigned> _placed; ///< tenants placed per node
};

/**
 * N nodes, one simulation context, one global scheduler. Build it,
 * addTenant() the fleet population, then run() traffic windows; use
 * migrateTenant()/setBarrierProbe() for forced (benchmark) moves.
 */
class Cluster
{
  public:
    /** @p sim_threads as for hv::System: 0 picks up
     *  sim::defaultSimThreads(). Never affects results. */
    explicit Cluster(ClusterConfig cfg, unsigned sim_threads = 0);
    ~Cluster();
    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    unsigned numNodes() const
    {
        return static_cast<unsigned>(_nodes.size());
    }
    hv::System &node(unsigned i) { return *_nodes[i]; }
    svc::ServicePlane &plane(unsigned i) { return *_planes[i]; }
    unsigned rackOf(unsigned n) const
    {
        return _cfg.nodesPerRack ? n / _cfg.nodesPerRack : 0;
    }
    const ClusterConfig &config() const { return _cfg; }
    GlobalScheduler &scheduler() { return *_gsched; }

    /**
     * Declare a tenant: the global scheduler places it, and a
     * binding (VM, workers, programmed workload, state buffers) is
     * created on *every* node in identical order — which is what
     * guarantees identical guest-virtual layouts, so a migrating
     * worker's window image and saved blob land at the same
     * addresses on the destination. Returns the tenant index.
     */
    std::size_t addTenant(FleetTenantSpec spec);

    std::size_t numTenants() const { return _tenants.size(); }
    unsigned tenantNode(std::size_t t) const
    {
        return _tenants[t].node;
    }
    svc::Tenant &binding(std::size_t t, unsigned node)
    {
        return *_tenants[t].bindings[node];
    }
    svc::Tenant &activeBinding(std::size_t t)
    {
        return binding(t, _tenants[t].node);
    }

    /** Serve one traffic window fleet-wide, then drain (including
     *  any in-flight migrations and forwarded arrivals). */
    void run(sim::Tick window);

    /**
     * Request a live migration; executed by the barrier state
     * machine. Returns false if @p dst is the current node, out of
     * range, or the tenant is already migrating. Callable from the
     * barrier probe or between runs.
     */
    bool migrateTenant(std::size_t t, unsigned dst);

    /** Invoked at every epoch barrier during run(); benches use it
     *  to force migrations at deterministic simulated times. */
    void setBarrierProbe(std::function<void()> probe)
    {
        _probe = std::move(probe);
    }

    /** Current simulated time (all domains agree at barriers). */
    sim::Tick now() const { return _nodes[0]->eq.now(); }

    /** Tick at which the current run()'s arrival window closes —
     *  barrier probes use it to stop forcing migrations once the
     *  fleet is draining. */
    sim::Tick horizon() const { return _horizon; }

    // ------------------------------------------- fleet accounting
    std::uint64_t migrationsStarted() const
    {
        return _migrationsStarted;
    }
    std::uint64_t migrationsCompleted() const
    {
        return _migrationsCompleted;
    }
    std::uint64_t migrationBytes() const { return _migrationBytes; }
    /** Freeze-to-reactivation service gap per completed move (ns). */
    const sim::Histogram &blackoutHist() const { return _blackoutNs; }

    /** Merged (sim::Histogram::merge) end-to-end latency across all
     *  bindings of tenant @p t / of node @p n / of the whole fleet —
     *  a tenant's completions land on whichever node served them. */
    sim::Histogram tenantE2e(std::size_t t) const;
    sim::Histogram nodeE2e(unsigned n) const;
    sim::Histogram fleetE2e() const;

    std::uint64_t fleetArrivals() const;
    std::uint64_t fleetCompleted() const;
    std::uint64_t fleetGoodput() const;
    std::uint64_t fleetSloViolations() const;
    std::uint64_t fleetDropped() const;

    /** FNV-1a over every plane fingerprint plus the migration
     *  accounting; byte-stable across pool widths. */
    std::uint64_t fingerprint() const;

  private:
    friend class GlobalScheduler;

    enum class MigState
    {
        kSettled,
        kFreezing, ///< exports in flight on the source node
        kInFlight, ///< parcel on the wire
    };
    enum class ExportState
    {
        kRetry, ///< needs (re-)issue at the next barrier
        kPending,
        kDone,
    };

    struct FleetTenant
    {
        FleetTenantSpec spec;
        std::vector<svc::Tenant *> bindings; ///< one per node
        unsigned node = 0;
        MigState state = MigState::kSettled;
        unsigned dst = 0;
        sim::Tick freezeTick = 0;
        sim::Tick lastMigration = 0;
        std::vector<ExportState> exportState;
        std::vector<hv::VaccelContext> exportCtx;
        /** Arrivals forwarded while the parcel was on the wire. */
        std::vector<int> pendingStrays;
    };

    struct Stray
    {
        svc::Tenant *binding;
        int user;
    };

    void barrierStep();
    /** pump() every plane with a ready tenant; the others have
     *  nothing a visit would act on. */
    void pumpPlanes();
    void drainInboxes();
    void importParcel(MigrationParcel &p);
    void drainStrays();
    /** Re-issue exports and ship finished freezes; a no-op while no
     *  migration is in flight. */
    void progressFreezes();
    void issueExports(std::size_t ti);
    void assembleAndSend(std::size_t ti);
    /** No queued/busy work, no migration state in flight. */
    bool quiesced() const;
    bool finished() const;
    /** Queue + busy-worker load of node @p n's settled tenants. */
    std::uint64_t nodeLoad(unsigned n) const;

    ClusterConfig _cfg;
    sim::DomainSet _domains;
    sim::EpochScheduler _sched;
    std::vector<std::unique_ptr<hv::System>> _nodes;
    std::vector<std::unique_ptr<svc::ServicePlane>> _planes;
    /** [src][dst] link channels; null on the diagonal. */
    std::vector<std::vector<std::unique_ptr<sim::Channel<ParcelPtr>>>>
        _links;
    /** Parcels received, per destination node (written only by that
     *  node's domain; drained at barriers). */
    std::vector<std::vector<ParcelPtr>> _inbox;
    /** Forwarded arrivals, per source node (same discipline). */
    std::vector<std::vector<Stray>> _strays;
    std::unordered_map<const svc::Tenant *, std::size_t> _byBinding;
    std::vector<FleetTenant> _tenants;
    std::unique_ptr<GlobalScheduler> _gsched;
    std::function<void()> _probe;
    sim::Tick _horizon = 0;
    sim::Tick _nextRebalance = 0;
    std::uint64_t _migrationsStarted = 0;
    std::uint64_t _migrationsCompleted = 0;
    std::uint64_t _migrationBytes = 0;
    sim::Histogram _blackoutNs{
        nullptr, "blackout_ns",
        "per-migration service blackout (ns)"};
};

} // namespace optimus::fleet

#endif // OPTIMUS_FLEET_FLEET_HH

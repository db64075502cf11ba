/**
 * @file
 * The fleet plane: N FPGA nodes (each a full hv::System) behind one
 * global scheduler, with cross-node live tenant migration.
 *
 * Topology: every node runs on the cluster's one sim::EventQueue.
 * Node-to-node links have a configurable rack / inter-rack latency;
 * what crosses one (a parcel, a forwarded arrival) is an event on the
 * shared queue one link latency after it is sent, plus a parcel's
 * wire time. run() advances the queue in windows one smallest link
 * latency wide (the rack link; the inter-rack link when every rack
 * holds one node; unbounded for a single node) and runs the
 * rebalancer and the barrier probe between windows: the two steps
 * that must see every node at once.
 *
 * Tenancy: a fleet tenant is one logical svc tenant with a *binding*
 * (VM + workers + programmed workload) on every node, created in
 * identical order so guest-virtual layouts match across nodes; at
 * most one binding is active. Migration freezes the active binding
 * (arrivals still queue, dispatch stops), detaches each worker's job
 * through OptimusHv::exportContext() — the preemption path: drain,
 * device-state save to the guest buffer, SAVED doorbell, or forced
 * reset with ERR_STATUS on timeout — and, when the last export
 * completes, ships a parcel (contexts, queued requests, worker
 * DMA-window images including the saved blobs, and the arrival
 * generator) over the node link at the configured bandwidth. The
 * parcel's landing event imports it on the destination, and the
 * service stream continues there; the freeze-to-reactivation gap is
 * recorded per move in the blackout histogram.
 *
 * Determinism contract: every cross-node step runs inside the event
 * that triggers it (an export's completion, a parcel's or a stray's
 * landing), and the rebalancer and the probe run between windows,
 * where no event executes; every scan runs in index order with
 * deterministic tie-breaks. Each node's service plane dispatches
 * inside its own node's events. Fleet results are a pure function of
 * the configuration, byte-identical across --jobs.
 */

#ifndef OPTIMUS_FLEET_FLEET_HH
#define OPTIMUS_FLEET_FLEET_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
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
    /** Per-node platform template; every node runs this config. */
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
        unsigned batchLeft = 0;
        std::uint64_t windowBase = 0;
        /** Registered DMA-window image — carries the job data *and*
         *  the device blob the preemption path saved into it (and,
         *  for ring tenants, the ring contents and cursors). */
        std::vector<std::uint8_t> memory;
        /** Issued-but-uncompleted requests, oldest first (at most
         *  one on MMIO). */
        std::deque<svc::Inflight> inflight;
    };
    std::vector<WorkerState> workers;

    std::deque<svc::Request> queue;
    std::unique_ptr<svc::ArrivalGen> gen;
    std::uint64_t nextId = 0;
};

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
    /** Fatal for a cluster of no nodes, or with a link of no
     *  latency between two nodes. */
    explicit Cluster(ClusterConfig cfg);

    /** As perfbench/perfbench_sim.cc calls it, with a sim-thread
     *  count it ignores. Goes at the next benchmark change. */
    Cluster(ClusterConfig cfg, unsigned /*sim_threads*/)
        : Cluster(std::move(cfg))
    {
    }
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
     * Start a live migration of tenant @p t to node @p dst: freeze its
     * binding and export its workers; the last export to complete
     * sends the parcel, and the parcel's landing imports it. Returns
     * false if @p t or @p dst is out of range, @p dst is the current
     * node, or the tenant is already migrating. Callable from an
     * event, from the barrier probe, or between runs.
     */
    bool migrateTenant(std::size_t t, unsigned dst);

    /** Invoked between windows during run(), after the rebalancer;
     *  benches use it to force migrations at deterministic simulated
     *  times. */
    void setBarrierProbe(std::function<void()> probe)
    {
        _probe = std::move(probe);
    }

    /** Current simulated time, every node's. */
    sim::Tick now() const { return _eq.now(); }

    /** Width of run()'s windows: the smallest link latency, or
     *  kTickForever for a single node. */
    sim::Tick window() const { return _window; }

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
     *  accounting. */
    std::uint64_t fingerprint() const;

  private:
    friend class GlobalScheduler;

    enum class MigState
    {
        kSettled,
        kFreezing, ///< exports in flight on the source node
        kInFlight, ///< parcel on the wire
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
        /** Worker contexts of a freeze, and the exports still due. */
        std::vector<hv::VaccelContext> exportCtx;
        std::size_t exportsLeft = 0;
        /** Arrivals forwarded while the parcel was on the wire. */
        std::vector<int> pendingStrays;
    };

    /** Between windows: the rebalancer and the probe. */
    void barrierStep();
    void assembleAndSend(std::size_t ti);
    void importParcel(MigrationParcel &p);
    /** An arrival fired on binding @p b, detached on node @p from: it
     *  reaches its tenant's node one link latency later. */
    void forwardStray(unsigned from, const svc::Tenant &b, int user);
    /** No queued/busy work, no migration state in flight. */
    bool quiesced() const;
    bool finished() const;
    /** Queue + busy-worker load of node @p n's settled tenants. */
    std::uint64_t nodeLoad(unsigned n) const;

    /** Latency of the link from node @p s to node @p d. */
    sim::Tick linkLatency(unsigned s, unsigned d) const
    {
        return rackOf(s) == rackOf(d) ? _cfg.rackLinkLatency
                                      : _cfg.interRackLinkLatency;
    }

    ClusterConfig _cfg;
    /** The one queue every node runs on; declared before the nodes,
     *  which reference it. */
    sim::EventQueue _eq;
    /** perfbench's counters (sim/domain.hh), shared by every node's
     *  System::sched. Goes at the next benchmark change. */
    sim::EpochScheduler _sched{_eq};
    sim::Tick _window = sim::kTickForever;
    std::vector<std::unique_ptr<hv::System>> _nodes;
    std::vector<std::unique_ptr<svc::ServicePlane>> _planes;
    /** Forwarded arrivals not yet landed. */
    std::uint64_t _straysOnWire = 0;
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

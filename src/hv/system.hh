/**
 * @file
 * Whole-system convenience wrapper: event queue + platform +
 * hypervisor + per-slot guest VMs, processes, and userspace handles.
 * Used by the examples, tests, and benchmark harnesses; a downstream
 * user embedding the library can also start here.
 */

#ifndef OPTIMUS_HV_SYSTEM_HH
#define OPTIMUS_HV_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "hv/guest_api.hh"
#include "hv/optimus.hh"
#include "hv/platform.hh"

namespace optimus::hv {

class System;

/**
 * Hook observing System construction/destruction on the current
 * thread.
 *
 * Harnesses (e.g. the experiment runner's --telemetry dumper) install
 * one to attach trace sinks the moment a context exists and to
 * harvest its telemetry before it dies. The registration is
 * thread-local, preserving the context-locality invariant: parallel
 * experiment workers never observe each other's Systems.
 */
class SystemObserver
{
  public:
    virtual ~SystemObserver() = default;
    virtual void systemCreated(System &) {}
    virtual void systemDestroyed(System &) {}

    /** Install @p obs for this thread; returns the previous observer
     *  (restore it when done). */
    static SystemObserver *swap(SystemObserver *obs);
    static SystemObserver *current();
};

/**
 * A fully assembled simulated machine.
 *
 * Context-locality invariant: a System is one self-contained
 * simulation context. Everything mutable it touches — event queue,
 * pooled DMA-transaction blocks (sim::PoolArena, owned by the event
 * queue), platform components, stats, workload RNGs — lives inside
 * the System; no process-global mutable state is read or written
 * while it runs. Any number of Systems may therefore run concurrently
 * on different threads (one thread per System at a time), and each
 * produces results identical to a solo run. The exp::Runner relies on
 * this to fan experiment scenarios across a thread pool.
 */
class System
{
  public:
    /**
     * Solo form: the System owns a one-domain DomainSet and its
     * EpochScheduler. @p sim_threads sizes the scheduler's worker
     * pool; 0 (the default) picks up sim::defaultSimThreads() — which
     * the experiment runner sets per worker from `--sim-threads`. The
     * thread count never affects results, and with one domain every
     * epoch runs inline on the calling thread (see sim/domain.hh).
     */
    explicit System(PlatformConfig config, unsigned sim_threads = 0);

    /**
     * Embedded (cluster-node) form: the caller owns the DomainSet and
     * EpochScheduler, shared by several Systems of one simulation
     * context (fleet::Cluster), each on its own domain @p domain. The
     * embedder is responsible for the barrier hook (flushing every
     * node's trace bus) and for driving the shared scheduler;
     * run()/runAll() on any node advance the whole set.
     */
    System(sim::DomainSet &ext_domains, sim::EpochScheduler &ext_sched,
           sim::DomainId domain, PlatformConfig config);

    ~System();
    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /**
     * Create a VM (with one process) and attach a virtual
     * accelerator on @p slot; returns the userspace handle.
     */
    AccelHandle &
    attach(std::uint32_t slot, std::uint64_t vm_ram = 10ULL << 30)
    {
        auto &vm = hv.createVm(
            sim::strprintf("vm%zu", _handles.size()), vm_ram);
        auto &proc = vm.createProcess("app");
        auto &vaccel = hv.createVirtualAccel(proc, slot);
        _handles.push_back(
            std::make_unique<AccelHandle>(hv, vaccel));
        return *_handles.back();
    }

    /**
     * Attach another virtual accelerator on @p slot for a
     * process-mate of the tenant already holding that slot: a fresh
     * process created inside that tenant's VM, sharing the slot via
     * temporal multiplexing. Unlike attach(), no new VM is created —
     * the two handles share guest RAM provisioning and the EPT,
     * like two applications of one guest. Falls back to attach()
     * when no handle occupies @p slot yet.
     */
    AccelHandle &
    attachShared(std::uint32_t slot)
    {
        for (auto &h : _handles) {
            hv::VirtualAccel &v = h->vaccel();
            if (v.slot() != slot)
                continue;
            auto &vm = v.process().vm();
            auto &proc = vm.createProcess(sim::strprintf(
                "app%zu", vm.processes().size()));
            auto &vaccel = hv.createVirtualAccel(proc, slot);
            _handles.push_back(
                std::make_unique<AccelHandle>(hv, vaccel));
            return *_handles.back();
        }
        return attach(slot);
    }

    AccelHandle &handle(std::size_t i) { return *_handles[i]; }
    std::size_t numHandles() const { return _handles.size(); }

    /**
     * Advance the whole simulation — every domain, in conservative
     * lookahead epochs — up to and including @p limit. The epoch
     * schedule (windows of one interconnect latency, deferred channel
     * posts delivered at the barriers) is identical for every pool
     * size. @return events executed.
     */
    std::uint64_t run(sim::Tick limit) { return sched.run(limit); }

    /** Run every domain to quiescence. */
    std::uint64_t runAll() { return sched.run(); }

    /** Current simulated time (domain 0's clock; at barriers all
     *  domains agree). */
    sim::Tick now() const { return eq.now(); }

  private:
    /** Owned simulation context for the solo constructor; null when
     *  an embedder (fleet::Cluster) owns domains + scheduler.
     *  Declared before the public references so they exist first. */
    std::unique_ptr<sim::DomainSet> _ownedDomains;
    std::unique_ptr<sim::EpochScheduler> _ownedSched;

  public:
    /**
     * The simulation context: one EventQueue shard per logical
     * domain (a single shard for the solo form; the embedder's full
     * set, one shard per node, for the cluster form) and the channel
     * registry. Declared first so every other member may reference
     * its shards.
     */
    sim::DomainSet &domains;
    /** This system's shard, on which its whole platform runs; kept
     *  as a member-style reference so `sys.eq` call sites read
     *  naturally. */
    sim::EventQueue &eq;
    /** Root of the observability spine: the stat tree ("sys.…") and
     *  the trace bus every component publishes on. Declared before
     *  the platform so components can wire onto them during
     *  construction. */
    sim::Telemetry telemetry{"sys"};
    sim::TraceBus trace{eq};
    /** The conservative epoch scheduler driving `domains`. */
    sim::EpochScheduler &sched;
    Platform platform;
    OptimusHv hv;

  private:
    std::vector<std::unique_ptr<AccelHandle>> _handles;
    SystemObserver *_observer = nullptr;
};

/** Config helper: OPTIMUS mode with @p n copies of @p app. */
PlatformConfig makeOptimusConfig(const std::string &app,
                                 std::uint32_t n,
                                 sim::PlatformParams params =
                                     sim::PlatformParams::
                                         harpDefaults());

/** Config helper: pass-through mode with a single @p app. */
PlatformConfig makePassthroughConfig(
    const std::string &app,
    sim::PlatformParams params =
        sim::PlatformParams::harpDefaults());

} // namespace optimus::hv

#endif // OPTIMUS_HV_SYSTEM_HH

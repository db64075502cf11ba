/**
 * @file
 * Whole-system convenience wrapper: event queue + platform +
 * hypervisor + per-slot guest VMs, processes, and userspace handles.
 * Used by the examples, tests, and benchmark harnesses; a downstream
 * user embedding the library can also start here.
 *
 * A lone System owns its EventQueue: run(limit) is one
 * EventQueue::runUntil, and a guest call pumps the queue until the
 * event that completes it. A fleet::Cluster node runs on the
 * cluster's queue instead, shared with every other node.
 */

#ifndef OPTIMUS_HV_SYSTEM_HH
#define OPTIMUS_HV_SYSTEM_HH

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hv/guest_api.hh"
#include "hv/optimus.hh"
#include "hv/platform.hh"
#include "sim/domain.hh"

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
 * Context-locality invariant: a lone System (or a whole
 * fleet::Cluster) is one self-contained simulation context.
 * Everything mutable it touches — event queue, the free list of
 * DMA-transaction blocks (sim::PoolArena, owned by the event queue),
 * platform components, stats, workload RNGs — lives inside it; no
 * process-global mutable state is read or written while it runs. Any
 * number of contexts may therefore run concurrently on different
 * threads (one thread per context at a time), and each produces
 * results identical to a solo run. The exp::Runner relies on this to
 * fan experiment scenarios across a thread pool.
 */
class System
{
  public:
    /** Lone form: the System owns its queue. */
    explicit System(PlatformConfig config);

    /** The lone form as perfbench/perfbench_sim.cc calls it, with a
     *  sim-thread count it ignores. Goes at the next benchmark
     *  change. */
    System(PlatformConfig config, unsigned /*sim_threads*/)
        : System(std::move(config))
    {
    }

    /**
     * Cluster-node form: the System runs on @p ext_eq, the queue of
     * the fleet::Cluster that owns it and every other node, which
     * also owns @p ext_sched (sim/domain.hh). run()/runAll() on any
     * node advance every node.
     */
    System(sim::EventQueue &ext_eq, sim::EpochScheduler &ext_sched,
           PlatformConfig config);

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
        _handles.push_back(std::make_unique<AccelHandle>(hv, vaccel));
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

    /**
     * Advance the simulation up to and including @p limit (for a
     * cluster node, every node, without the fleet's barrier work).
     * @return events executed.
     */
    std::uint64_t run(sim::Tick limit) { return eq.runUntil(limit); }

    /** Run the queue to quiescence. */
    std::uint64_t runAll() { return eq.runAll(); }

    /** Current simulated time (every node of a cluster shares it). */
    sim::Tick now() const { return eq.now(); }

  private:
    /** The lone form's queue and perfbench counters; null in a
     *  cluster node. Declared before the public references so they
     *  exist first. */
    std::unique_ptr<sim::EventQueue> _ownedEq;
    std::unique_ptr<sim::EpochScheduler> _ownedSched;

  public:
    /** The queue the whole platform runs on; declared first so every
     *  other member may reference it. */
    sim::EventQueue &eq;
    /** perfbench's names for the queue and its counters
     *  (sim/domain.hh). Go at the next benchmark change. */
    const sim::DomainSet &domains;
    sim::EpochScheduler &sched;
    /** Root of the observability spine: the stat tree ("sys.…") and
     *  the trace bus every component publishes on. Declared before
     *  the platform so components can wire onto them during
     *  construction. */
    sim::Telemetry telemetry{"sys"};
    sim::TraceBus trace{eq};
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

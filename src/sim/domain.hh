/**
 * @file
 * Conservative parallel discrete-event core: logical domains, typed
 * cross-domain channels, and the lookahead epoch scheduler.
 *
 * The kernel's unit of sequential execution is a **domain**: one
 * EventQueue shard (the PR 1 three-level calendar) plus every
 * component wired onto it. Within a domain nothing changes — events
 * execute in (tick, seq) order on a single thread. Across domains,
 * the only way to interact is a **Channel**: a typed, one-directional
 * message port that carries a static minimum latency. That latency is
 * exactly the lookahead a conservative parallel simulation needs: if
 * every cross-domain influence takes at least L ticks to arrive, all
 * domains can safely execute the window [T, T+L) concurrently — no
 * event inside the window can be affected by anything another domain
 * does inside the same window.
 *
 * The EpochScheduler exploits that: it advances all domains in
 * lockstep epochs of length
 *
 *     lookahead = min over cross-domain channels of minLatency
 *
 * (the platform's inter-component link latencies — UPI ~0.4 us — are
 * natural values for it). Messages sent during an epoch are buffered
 * in the sending domain's outbox and delivered at the barrier in
 * deterministic (tick, source domain, post order) order, which also
 * fixes the destination queue's FIFO tie-break seq. Execution order
 * is therefore a pure function of the topology — never of the worker
 * count — so a run with `threads == 1` (strictly serial, domain-id
 * order, and for a single-domain set literally today's engine) is
 * bit-identical to a run on any pool size.
 *
 * Thread-safety model: a domain's queue and components are touched
 * only by the worker executing that domain's epoch; all handoff
 * (task publication, outbox collection, delivery) goes through the
 * scheduler's mutex, so every cross-thread access is ordered by a
 * happens-before edge. There is no other shared mutable state — the
 * per-domain PoolArena, Rngs and telemetry nodes all live inside
 * their domain.
 */

#ifndef OPTIMUS_SIM_DOMAIN_HH
#define OPTIMUS_SIM_DOMAIN_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace optimus::sim {

/**
 * The worker-thread execution context: which domain's events are
 * currently running on this thread. Set by the EpochScheduler (and by
 * DomainSet::runScope for serial drivers) around every slice of
 * domain execution; TraceBus uses it to route buffered emissions to
 * the emitting domain and to stamp them with that domain's clock.
 * Null while no domain is executing (setup / teardown / harness
 * code).
 */
struct ExecContext
{
    EventQueue *queue = nullptr;
    DomainId domain = kNoDomain;
};

/** The context active on the calling thread, or nullptr. */
const ExecContext *currentExecContext();

/** RAII setter for the calling thread's ExecContext. */
class ExecScope
{
  public:
    ExecScope(EventQueue &q, DomainId d);
    ~ExecScope();
    ExecScope(const ExecScope &) = delete;
    ExecScope &operator=(const ExecScope &) = delete;

  private:
    ExecContext _ctx;
    const ExecContext *_prev;
};

/**
 * Worker-pool width a System picks up at construction when the
 * embedding harness doesn't size it explicitly. Thread-local (like
 * hv::SystemObserver) so parallel experiment workers can each carry
 * their own setting without sharing process state. Defaults to 1 =
 * strictly serial.
 */
unsigned defaultSimThreads();
/** Set the calling thread's default; returns the previous value. */
unsigned setDefaultSimThreads(unsigned n);

class ChannelBase;

/**
 * A set of domain shards: the root object of one (possibly parallel)
 * simulation context. Owns one EventQueue per domain and the registry
 * of cross-domain channels the scheduler derives its lookahead from.
 */
class DomainSet
{
  public:
    explicit DomainSet(std::uint32_t domains = 1);
    ~DomainSet();
    DomainSet(const DomainSet &) = delete;
    DomainSet &operator=(const DomainSet &) = delete;

    std::uint32_t size() const
    {
        return static_cast<std::uint32_t>(_queues.size());
    }

    EventQueue &
    queue(DomainId d)
    {
        return *_queues[d];
    }
    const EventQueue &
    queue(DomainId d) const
    {
        return *_queues[d];
    }

    /**
     * The conservative lookahead: the minimum latency over all
     * registered channels that either cross a domain boundary or use
     * deferred (barrier) delivery. kTickForever when no such channel
     * exists (the domains are independent and an epoch may run each
     * to completion). Deferred same-domain channels constrain the
     * window on purpose: the platform's boundary channels defer even
     * though both ends share the node's domain, which fixes the
     * epoch schedule every recorded fingerprint depends on. Cached:
     * recomputed only when a channel is registered or destroyed.
     */
    Tick minCrossLatency() const { return _lookahead; }

    /** Number of registered channels (same-domain ones included). */
    std::size_t numChannels() const { return _channels.size(); }

    /** Total events executed across every shard. */
    std::uint64_t executed() const;

    /** Earliest pending event tick across every shard. */
    Tick nextEventTick() const;

  private:
    friend class ChannelBase;
    friend class EpochScheduler;

    /** Re-derive _lookahead from the channel registry. */
    void refreshLookahead();

    std::vector<std::unique_ptr<EventQueue>> _queues;
    std::vector<ChannelBase *> _channels;
    Tick _lookahead = kTickForever;
    /** Registration-order channel ids: the deterministic same-tick
     *  delivery tie-break (see EventQueue::CrossPost). */
    std::uint32_t _nextChannelId = 0;
};

/**
 * Untyped half of a channel: endpoint domains, the static minimum
 * latency, and the outbox-post protocol. The latency is a property of
 * the modeled link (e.g. PlatformParams::upiLatency), declared once
 * at wiring time; every send pays at least that much simulated time,
 * which is what makes the epoch window safe.
 */
class ChannelBase
{
  public:
    /**
     * Delivery policy. kImmediate same-domain channels schedule
     * directly into the shared queue (ordinary determinism rules);
     * kDeferred channels always buffer in the source outbox and are
     * delivered by the EpochScheduler at the barrier, *even when both
     * endpoints share a domain*. The platform's boundary channels are
     * kDeferred: their barrier-delivery order — (tick, channel id,
     * send seq) — and the epoch windows they impose are part of the
     * stock engine's timing. Cross-domain channels are deferred
     * regardless.
     */
    enum class Delivery
    {
        kImmediate,
        kDeferred,
    };

    ChannelBase(DomainSet &set, DomainId src, DomainId dst,
                Tick min_latency, std::string name,
                Delivery delivery = Delivery::kImmediate);
    virtual ~ChannelBase();
    ChannelBase(const ChannelBase &) = delete;
    ChannelBase &operator=(const ChannelBase &) = delete;

    DomainId srcDomain() const { return _src; }
    DomainId dstDomain() const { return _dst; }
    Tick minLatency() const { return _lat; }
    const std::string &name() const { return _name; }
    bool crossesDomains() const { return _src != _dst; }
    /** Whether sends buffer until the next epoch barrier. */
    bool
    deferred() const
    {
        return _delivery == Delivery::kDeferred || _src != _dst;
    }
    std::uint64_t sent() const { return _sent; }
    /** Registration-order id within the DomainSet. */
    std::uint32_t id() const { return _id; }

  protected:
    /**
     * Queue @p f for execution in the destination domain at
     *
     *     when = srcQueue.now() + minLatency + extra_delay.
     *
     * Immediate same-domain channels schedule directly (ordinary
     * determinism rules apply); deferred ones build the closure in
     * the source shard's callback pool and append its key to the
     * outbox, from which the EpochScheduler delivers at the next
     * barrier in (when, channel id, send seq) order.
     */
    template <typename F>
    void
    post(Tick extra_delay, F &&f)
    {
        EventQueue &sq = _set.queue(_src);
        Tick when = sq.now() + _lat + extra_delay;
        std::uint64_t seq = _sent++;
        if (!deferred()) {
            // Intra-domain immediate: an ordinary (deterministically
            // tie-broken) scheduling; no barrier involvement.
            sq.scheduleAt(when, std::forward<F>(f));
            return;
        }
        sq.postCross(_dst, when, _id, seq, std::forward<F>(f));
    }

  private:
    DomainSet &_set;
    DomainId _src;
    DomainId _dst;
    Tick _lat;
    std::string _name;
    Delivery _delivery;
    std::uint32_t _id;
    std::uint64_t _sent = 0;
};

/**
 * A typed cross-domain message port. Bind the receiver once at wiring
 * time (it runs inside the destination domain, so it may freely touch
 * that domain's components), then send() from the source domain.
 */
template <typename T>
class Channel : public ChannelBase
{
  public:
    using ChannelBase::ChannelBase;

    /** Install the destination-side handler. */
    template <typename F>
    void
    onReceive(F fn)
    {
        _rx = std::move(fn);
    }

    /** Send @p msg; it arrives minLatency (+ @p extra_delay) after
     *  the source domain's current tick. */
    void
    send(T msg, Tick extra_delay = 0)
    {
        post(extra_delay,
             [this, m = std::move(msg)]() mutable { _rx(std::move(m)); });
    }

  private:
    std::function<void(T)> _rx;
};

/**
 * The conservative epoch scheduler: advances every domain of a
 * DomainSet in lockstep lookahead windows, executing domains on a
 * worker pool when constructed with threads > 1 and strictly serially
 * (domain-id order, on the calling thread) otherwise.
 *
 * A barrier costs only its pending work: each epoch reads every
 * domain's cached next event tick (O(1), EventQueue::nextEventTick),
 * takes the window from their minimum, and coasts a domain with
 * nothing due in the window straight to its end
 * (EventQueue::coastTo). An epoch with fewer than two due domains
 * runs inline on the calling thread even when a pool exists: one busy
 * domain has no parallelism to offer, only a pool handoff to pay for.
 *
 * Determinism: per-domain execution is single-threaded and the
 * barrier delivery order is a sorted merge, so results are identical
 * for every pool size — including the telemetry/trace byte streams
 * when the TraceBus is domain-armed (see trace_bus.hh).
 */
class EpochScheduler
{
  public:
    explicit EpochScheduler(DomainSet &set, unsigned threads = 1);
    ~EpochScheduler();
    EpochScheduler(const EpochScheduler &) = delete;
    EpochScheduler &operator=(const EpochScheduler &) = delete;

    unsigned threads() const { return _threads; }

    /**
     * Run all domains up to and including @p limit (every domain's
     * clock ends at @p limit exactly, like EventQueue::runUntil), or
     * to global quiescence when @p limit is kTickForever.
     * @return events executed across all domains.
     */
    std::uint64_t run(Tick limit = kTickForever);

    /**
     * Advance the whole set, epoch by epoch, until @p stop() returns
     * true. This is the multi-domain generalization of the old
     * "runOne() until predicate" pump loops (guest API, service
     * plane): @p between() (optional) and then @p stop() are
     * evaluated once up front and then at every epoch barrier, on
     * the calling thread, outside any domain's ExecScope.
     *
     * Barrier granularity is what keeps determinism pool-invariant:
     * every epoch executes to its window end, so the predicate always
     * observes a state that is identical across pool sizes — a
     * mid-window stop would leave a schedule-dependent residue of
     * unexecuted events in the other domains behind. The price
     * is that a pump returns up to one lookahead window after the
     * condition became true, with that window's pending work already
     * executed; callers built on completion flags (all of ours) are
     * insensitive to that.
     *
     * @retval true @p stop() became true; false the whole set drained
     * first (a deadlock from the pumping caller's point of view).
     */
    bool pumpUntil(const std::function<bool()> &stop,
                   const std::function<void()> &between = nullptr);

    /** Invoked on the coordinating thread at every epoch barrier and
     *  at the end of run(); the System hooks the TraceBus merge
     *  flush here. */
    void setBarrierHook(std::function<void()> hook)
    {
        _barrierHook = std::move(hook);
    }

    /** Epoch barriers executed over this scheduler's lifetime. */
    std::uint64_t epochs() const { return _epochs; }
    /** Cross-domain events delivered over this scheduler's
     *  lifetime. */
    std::uint64_t delivered() const { return _delivered; }
    /** The lookahead run() is currently deriving its windows from. */
    Tick lookahead() const { return _set.minCrossLatency(); }

  private:
    enum class Task
    {
        kNone,
        kEpoch,
        kStop,
    };

    /** One buffered post's barrier-delivery key (see deliverPosts). */
    struct PostRef
    {
        Tick when;
        std::uint32_t chan;
        std::uint64_t seq;
        DomainId src;
        std::uint32_t idx;
    };

    /**
     * One epoch: deliver posts, read every domain's next tick, and
     * unless nothing is due at or before @p limit, stage the window,
     * execute it and run the barrier hook.
     * @retval false nothing was due (no epoch ran).
     */
    bool step(Tick limit);
    /** Whether domain @p d has an event inside the staged window. */
    bool
    due(DomainId d) const
    {
        return _next[d] != kTickForever && _next[d] <= _epochEnd;
    }
    void runDomain(DomainId d);
    void executeEpoch();
    void deliverPosts();
    void workerLoop(unsigned index);
    /** Publish the staged task to the pool and wait for the
     *  barrier. */
    void dispatchToPool(Task task);

    DomainSet &_set;
    unsigned _threads;
    std::function<void()> _barrierHook;
    std::uint64_t _epochs = 0;
    std::uint64_t _delivered = 0;

    // Epoch parameters staged by step() for the workers.
    Tick _epochEnd = 0;
    bool _drainAll = false;
    /** Each domain's next event tick, read once per epoch. */
    std::vector<Tick> _next;
    /** deliverPosts()' sort buffer and the domains whose outboxes
     *  it drained, kept across barriers. */
    std::vector<PostRef> _postOrder;
    std::vector<DomainId> _drained;

    // Pool state (threads > 1 only). All shard handoff is ordered by
    // _m: the coordinator publishes a generation under the lock and
    // workers report completion under it.
    std::vector<std::thread> _workers;
    std::mutex _m;
    std::condition_variable _cvWork;
    std::condition_variable _cvDone;
    std::uint64_t _gen = 0;
    unsigned _outstanding = 0;
    Task _task = Task::kNone;
};

} // namespace optimus::sim

#endif // OPTIMUS_SIM_DOMAIN_HH

#include "sim/domain.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace optimus::sim {

namespace {

thread_local const ExecContext *t_exec = nullptr;
thread_local unsigned t_defaultSimThreads = 1;
/** Set while the calling thread is a pool worker, so a nested run()
 *  executes inline instead of deadlocking on its own pool. */
thread_local bool t_onExecutor = false;

} // namespace

const ExecContext *
currentExecContext()
{
    return t_exec;
}

ExecScope::ExecScope(EventQueue &q, DomainId d)
    : _ctx{&q, d}, _prev(t_exec)
{
    t_exec = &_ctx;
}

ExecScope::~ExecScope()
{
    t_exec = _prev;
}

unsigned
defaultSimThreads()
{
    return t_defaultSimThreads;
}

unsigned
setDefaultSimThreads(unsigned n)
{
    unsigned prev = t_defaultSimThreads;
    t_defaultSimThreads = n == 0 ? 1 : n;
    return prev;
}

DomainSet::DomainSet(std::uint32_t domains)
{
    OPTIMUS_ASSERT(domains >= 1, "a DomainSet needs a domain");
    _queues.reserve(domains);
    for (std::uint32_t d = 0; d < domains; ++d) {
        _queues.push_back(std::make_unique<EventQueue>());
        _queues.back()->setDomain(d);
    }
}

DomainSet::~DomainSet()
{
    // Release every pending closure — ring, far ring, overflow heap
    // and outbox — while every shard still exists, before any queue
    // (and its arena) is torn down. A cross-domain post's closure
    // sits in its *source* shard's pool until the barrier, so it may
    // hold state meant for another shard (a fleet migration parcel
    // in flight between nodes); releasing it must not depend on
    // queue destruction order.
    for (const auto &q : _queues)
        q->clearPending();
}

void
DomainSet::refreshLookahead()
{
    // Deferred channels constrain the window even when same-domain:
    // their sends sit in the outbox until a barrier, so the window
    // must not outrun the earliest possible delivery.
    _lookahead = kTickForever;
    for (const ChannelBase *c : _channels) {
        if (c->deferred())
            _lookahead = std::min(_lookahead, c->minLatency());
    }
}

std::uint64_t
DomainSet::executed() const
{
    std::uint64_t n = 0;
    for (const auto &q : _queues)
        n += q->executed();
    return n;
}

Tick
DomainSet::nextEventTick() const
{
    Tick min = kTickForever;
    for (const auto &q : _queues)
        min = std::min(min, q->nextEventTick());
    return min;
}

ChannelBase::ChannelBase(DomainSet &set, DomainId src, DomainId dst,
                         Tick min_latency, std::string name,
                         Delivery delivery)
    : _set(set), _src(src), _dst(dst), _lat(min_latency),
      _name(std::move(name)), _delivery(delivery),
      _id(set._nextChannelId++)
{
    OPTIMUS_ASSERT(src < set.size() && dst < set.size(),
                   "channel %s: endpoint domain out of range",
                   _name.c_str());
    OPTIMUS_ASSERT(!deferred() || min_latency > 0,
                   "channel %s: a deferred (or cross-domain) channel "
                   "needs a positive minimum latency (it is the "
                   "lookahead)",
                   _name.c_str());
    set._channels.push_back(this);
    set.refreshLookahead();
}

ChannelBase::~ChannelBase()
{
    auto &v = _set._channels;
    v.erase(std::remove(v.begin(), v.end(), this), v.end());
    _set.refreshLookahead();
}

EpochScheduler::EpochScheduler(DomainSet &set, unsigned threads)
    : _set(set), _threads(threads == 0 ? 1 : threads),
      _next(set.size(), kTickForever)
{
    if (_threads <= 1)
        return;
    _workers.reserve(_threads);
    for (unsigned i = 0; i < _threads; ++i)
        _workers.emplace_back([this, i]() { workerLoop(i); });
}

EpochScheduler::~EpochScheduler()
{
    if (_workers.empty())
        return;
    dispatchToPool(Task::kStop);
    for (std::thread &w : _workers)
        w.join();
}

void
EpochScheduler::runDomain(DomainId d)
{
    EventQueue &q = _set.queue(d);
    if (!due(d)) {
        // Nothing to execute: runUntil would only move the clock (and
        // runAll not even that). Cross-domain work arrives only at
        // barriers, so nothing can become due mid-window.
        if (!_drainAll)
            q.coastTo(_epochEnd);
        return;
    }
    ExecScope scope(q, d);
    if (_drainAll)
        q.runAll();
    else
        q.runUntil(_epochEnd);
}

void
EpochScheduler::workerLoop(unsigned index)
{
    t_onExecutor = true;
    std::uint64_t seen = 0;
    for (;;) {
        Task task;
        {
            std::unique_lock<std::mutex> lk(_m);
            _cvWork.wait(lk, [&]() { return _gen != seen; });
            seen = _gen;
            task = _task;
        }
        if (task == Task::kStop)
            return;
        if (task == Task::kEpoch) {
            // Static round-robin partition: worker i executes
            // domains i, i+threads, ... — which domains land where
            // never affects results, only who computes them.
            for (DomainId d = index; d < _set.size(); d += _threads)
                runDomain(d);
        }
        {
            std::lock_guard<std::mutex> lk(_m);
            if (--_outstanding == 0)
                _cvDone.notify_all();
        }
    }
}

void
EpochScheduler::dispatchToPool(Task task)
{
    std::unique_lock<std::mutex> lk(_m);
    _task = task;
    _outstanding = static_cast<unsigned>(_workers.size());
    ++_gen;
    _cvWork.notify_all();
    if (task == Task::kStop)
        return;
    _cvDone.wait(lk, [&]() { return _outstanding == 0; });
}

void
EpochScheduler::executeEpoch()
{
    unsigned busy = 0;
    if (!_workers.empty() && !t_onExecutor) {
        for (DomainId d = 0; d < _set.size() && busy < 2; ++d)
            busy += due(d) ? 1 : 0;
    }
    if (busy < 2) {
        for (DomainId d = 0; d < _set.size(); ++d)
            runDomain(d);
        return;
    }
    dispatchToPool(Task::kEpoch);
}

void
EpochScheduler::deliverPosts()
{
    // Gather every shard's outbox, establish the deterministic
    // delivery order (tick, channel id, channel send seq), and
    // schedule into the destination shards — which assigns
    // destination seqs in exactly that order, fixing the FIFO
    // tie-break. The key is a pure function of the channel topology
    // and the message streams — never of which domain an endpoint
    // lives in or which worker ran it.
    std::vector<PostRef> &order = _postOrder;
    std::vector<DomainId> &drained = _drained;
    order.clear();
    drained.clear();
    for (DomainId d = 0; d < _set.size(); ++d) {
        auto &ob = _set.queue(d).outbox();
        if (ob.empty())
            continue;
        drained.push_back(d);
        for (std::uint32_t i = 0; i < ob.size(); ++i)
            order.push_back(
                PostRef{ob[i].when, ob[i].chan, ob[i].seq, d, i});
    }
    if (order.size() > 1) {
        std::sort(order.begin(), order.end(),
                  [](const PostRef &a, const PostRef &b) {
                      if (a.when != b.when)
                          return a.when < b.when;
                      if (a.chan != b.chan)
                          return a.chan < b.chan;
                      return a.seq < b.seq;
                  });
    }
    for (const PostRef &r : order) {
        EventQueue &src = _set.queue(r.src);
        const EventQueue::CrossPost &p = src.outbox()[r.idx];
        // Conservative guarantee: when >= send time + lookahead,
        // which is beyond the epoch the send happened in, so this
        // never schedules into the destination's past (the debug
        // assert in scheduleAt is the canary).
        _set.queue(p.dst).deliverPost(src, p);
        ++_delivered;
    }
    for (DomainId d : drained)
        _set.queue(d).outbox().clear();
}

bool
EpochScheduler::step(Tick limit)
{
    deliverPosts();
    Tick tmin = kTickForever;
    for (DomainId d = 0; d < _set.size(); ++d) {
        _next[d] = _set.queue(d).nextEventTick();
        tmin = std::min(tmin, _next[d]);
    }
    if (tmin == kTickForever || tmin > limit)
        return false;
    Tick la = _set.minCrossLatency();
    if (la == kTickForever) {
        // Independent domains: one epoch covers the whole run.
        _drainAll = limit == kTickForever;
        _epochEnd = limit;
    } else {
        _drainAll = false;
        Tick end = tmin > kTickForever - la ? kTickForever - 1
                                            : tmin + la - 1;
        _epochEnd = std::min(limit, end);
    }
    executeEpoch();
    ++_epochs;
    if (_barrierHook)
        _barrierHook();
    return true;
}

std::uint64_t
EpochScheduler::run(Tick limit)
{
    std::uint64_t before = _set.executed();
    while (step(limit)) {
    }
    // Like EventQueue::runUntil, finite limits advance every domain's
    // clock to the limit even when no event lands there (none is due
    // by then: step() stopped on tmin > limit).
    if (limit != kTickForever) {
        for (DomainId d = 0; d < _set.size(); ++d) {
            if (_set.queue(d).now() < limit)
                _set.queue(d).coastTo(limit);
        }
    }
    if (_barrierHook)
        _barrierHook();
    return _set.executed() - before;
}

bool
EpochScheduler::pumpUntil(const std::function<bool()> &stop,
                          const std::function<void()> &between)
{
    auto check = [&]() {
        if (between)
            between();
        return stop();
    };
    auto finish = [&](bool hit) {
        if (_barrierHook)
            _barrierHook();
        return hit;
    };
    if (check())
        return finish(true);
    for (;;) {
        // One run() step per predicate evaluation: same window
        // derivation, same executeEpoch (pool or serial), same
        // barrier — so a pump's event schedule is exactly a prefix
        // of what run() would execute, at any pool width. check() may
        // nest another pump (the service plane verifies results
        // through the guest API); the next step simply re-derives
        // its window from wherever that left the set.
        if (!step(kTickForever))
            return finish(false);
        if (check())
            return finish(true);
    }
}

} // namespace optimus::sim

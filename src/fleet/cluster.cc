/**
 * @file
 * fleet::Cluster / fleet::GlobalScheduler implementation. The
 * mechanics live here; see fleet.hh for the architecture and the
 * determinism contract. Each cross-node step runs inside the event
 * that triggers it: the export completion that finishes a freeze
 * sends the parcel, the parcel's landing imports it, and a stray's
 * landing admits it (or holds it while its tenant is in flight).
 * barrierStep(), which run() calls between windows, keeps only what
 * must see every node at once: the rebalancer's load scan and the
 * probe. Each node's service plane dispatches in its own event
 * handlers.
 */

#include "fleet/fleet.hh"

#include <algorithm>

#include "sim/fnv.hh"
#include "sim/logging.hh"

namespace optimus::fleet {

// ------------------------------------------------- GlobalScheduler

GlobalScheduler::GlobalScheduler(Cluster &cluster, Policy policy)
    : _c(cluster), _policy(policy), _placed(cluster.numNodes(), 0)
{
}

unsigned
GlobalScheduler::leastLoadedIn(const std::vector<std::uint64_t> &load,
                               unsigned lo, unsigned hi,
                               unsigned exclude) const
{
    unsigned best = hi; // sentinel: nothing eligible
    for (unsigned i = lo; i < hi; ++i) {
        if (i == exclude)
            continue;
        if (best == hi || load[i] < load[best])
            best = i;
    }
    return best;
}

unsigned
GlobalScheduler::place(const FleetTenantSpec &spec)
{
    const unsigned n = _c.numNodes();
    unsigned lo = 0, hi = n;
    if (_policy == Policy::kLocality && _c._cfg.nodesPerRack > 0) {
        lo = spec.homeRack * _c._cfg.nodesPerRack;
        hi = std::min(n, lo + _c._cfg.nodesPerRack);
        if (lo >= n) { // rack beyond the fleet: place anywhere
            lo = 0;
            hi = n;
        }
    }
    unsigned best = lo;
    for (unsigned i = lo; i < hi; ++i)
        if (_placed[i] < _placed[best])
            best = i;
    ++_placed[best];
    return best;
}

std::optional<GlobalScheduler::Move>
GlobalScheduler::rebalance(sim::Tick now)
{
    const unsigned n = _c.numNodes();
    if (n < 2)
        return std::nullopt;

    std::vector<std::uint64_t> load(n, 0);
    for (unsigned i = 0; i < n; ++i)
        load[i] = _c.nodeLoad(i);

    auto movable = [&](const Cluster::FleetTenant &ft) {
        return ft.state == Cluster::MigState::kSettled &&
               now - ft.lastMigration >= _c._cfg.migrationCooldown;
    };

    if (_policy == Policy::kSloAware) {
        // First priority: the worst live-p99 violator, measured on
        // the tenant's merged cross-binding histogram, moved to the
        // globally least-loaded node.
        double worst = 1.0;
        std::size_t worst_t = 0;
        bool found = false;
        for (std::size_t t = 0; t < _c.numTenants(); ++t) {
            const auto &ft = _c._tenants[t];
            if (!movable(ft) || ft.spec.svc.sloNs == 0)
                continue;
            sim::Histogram h = _c.tenantE2e(t);
            if (h.count() < 16) // too few samples to judge
                continue;
            double ratio = static_cast<double>(h.p99()) /
                           static_cast<double>(ft.spec.svc.sloNs);
            if (ratio > worst) {
                worst = ratio;
                worst_t = t;
                found = true;
            }
        }
        if (found) {
            unsigned cur = _c._tenants[worst_t].node;
            unsigned dst = leastLoadedIn(load, 0, n, cur);
            if (dst != n && load[dst] < load[cur])
                return Move{worst_t, dst};
        }
        // No violator (or nowhere better): fall through to load
        // balancing so an idle fleet still converges.
    }

    unsigned max_n = 0, min_n = 0;
    for (unsigned i = 1; i < n; ++i) {
        if (load[i] > load[max_n])
            max_n = i;
        if (load[i] < load[min_n])
            min_n = i;
    }
    if (load[max_n] - load[min_n] < _c._cfg.loadImbalanceThreshold)
        return std::nullopt;

    // Candidate: the longest-queued movable tenant on the most
    // loaded node (ties to the lowest tenant index).
    std::size_t best = 0;
    std::uint64_t best_q = 0;
    bool found = false;
    for (std::size_t t = 0; t < _c.numTenants(); ++t) {
        const auto &ft = _c._tenants[t];
        if (!movable(ft) || ft.node != max_n)
            continue;
        std::uint64_t q = _c.activeBinding(t).queueLength();
        if (!found || q > best_q) {
            best = t;
            best_q = q;
            found = true;
        }
    }
    if (!found)
        return std::nullopt;

    unsigned dst = min_n;
    if (_policy == Policy::kLocality && _c._cfg.nodesPerRack > 0) {
        // The tenant may not leave its home rack: pick the least
        // loaded node inside it instead.
        unsigned lo =
            _c._tenants[best].spec.homeRack * _c._cfg.nodesPerRack;
        unsigned hi = std::min(n, lo + _c._cfg.nodesPerRack);
        if (lo < n) {
            dst = leastLoadedIn(load, lo, hi, max_n);
            if (dst == hi)
                return std::nullopt; // single-node rack
            if (load[max_n] - load[dst] <
                _c._cfg.loadImbalanceThreshold)
                return std::nullopt;
        }
    }
    if (dst == max_n)
        return std::nullopt;
    return Move{best, dst};
}

// ---------------------------------------------------------- Cluster

Cluster::Cluster(ClusterConfig cfg) : _cfg(std::move(cfg))
{
    if (_cfg.nodes == 0)
        OPTIMUS_FATAL("fleet: a cluster needs at least one node");

    for (unsigned i = 0; i < _cfg.nodes; ++i) {
        _nodes.push_back(
            std::make_unique<hv::System>(_eq, _sched, _cfg.node));
        _planes.push_back(
            std::make_unique<svc::ServicePlane>(*_nodes.back()));
        _planes.back()->setStrayArrivalSink(
            [this, i](svc::Tenant &b, int user) {
                forwardStray(i, b, user);
            });
    }

    // A window is one smallest link latency wide, the shortest time
    // in which one node can reach another: the rebalancer and the
    // probe look at the fleet at that cadence.
    for (unsigned s = 0; s < _cfg.nodes; ++s) {
        for (unsigned d = 0; d < _cfg.nodes; ++d) {
            if (s == d)
                continue;
            if (linkLatency(s, d) == 0)
                OPTIMUS_FATAL("fleet: node links need a latency");
            _window = std::min(_window, linkLatency(s, d));
        }
    }

    _gsched = std::make_unique<GlobalScheduler>(*this, _cfg.policy);
}

Cluster::~Cluster() = default;

std::size_t
Cluster::addTenant(FleetTenantSpec spec)
{
    const std::size_t ti = _tenants.size();
    FleetTenant ft;
    ft.node = _gsched->place(spec);
    ft.spec = std::move(spec);

    // A binding on every node, created in identical order on each:
    // node k's plane performs exactly the same allocations whether
    // or not the tenant is active there, so guest-virtual layouts
    // (DMA windows, heap bumps, state buffers) match across nodes.
    for (unsigned i = 0; i < numNodes(); ++i) {
        svc::Tenant &b = _planes[i]->addTenant(ft.spec.svc);
        if (i != ft.node)
            b._mode = svc::Tenant::Mode::kDetached;
        ft.bindings.push_back(&b);
        _byBinding.emplace(&b, ti);
    }
    _tenants.push_back(std::move(ft));
    return ti;
}

bool
Cluster::migrateTenant(std::size_t ti, unsigned dst)
{
    if (ti >= numTenants())
        return false;
    FleetTenant &ft = _tenants[ti];
    if (dst >= numNodes() || dst == ft.node ||
        ft.state != MigState::kSettled)
        return false;

    ++_migrationsStarted;
    ft.state = MigState::kFreezing;
    ft.dst = dst;
    ft.freezeTick = now();

    svc::Tenant &src = *ft.bindings[ft.node];
    src._mode = svc::Tenant::Mode::kFrozen;
    const std::size_t nw = src._workers.size();
    ft.exportCtx.assign(nw, hv::VaccelContext{});
    ft.exportsLeft = nw;
    // Each export completes inline or in the hypervisor event that
    // ends its wait (OptimusHv::exportContext); the last one ships.
    hv::OptimusHv &hv = _nodes[ft.node]->hv;
    for (std::size_t w = 0; w < nw; ++w) {
        hv.exportContext(
            src._workers[w]->handle->vaccel(),
            [this, ti, w](bool ok, hv::VaccelContext ctx) {
                if (!ok) {
                    OPTIMUS_FATAL("fleet: tenant %zu worker %zu refused "
                                  "its export (fleet nodes run OPTIMUS "
                                  "and every worker has a state buffer)",
                                  ti, w);
                }
                FleetTenant &t = _tenants[ti];
                t.exportCtx[w] = std::move(ctx);
                if (--t.exportsLeft == 0)
                    assembleAndSend(ti);
            });
    }
    return true;
}

void
Cluster::assembleAndSend(std::size_t ti)
{
    FleetTenant &ft = _tenants[ti];
    svc::Tenant &src = *ft.bindings[ft.node];
    auto parcel = std::make_shared<MigrationParcel>();
    parcel->tenant = ti;
    parcel->srcNode = ft.node;
    parcel->dstNode = ft.dst;
    parcel->freezeTick = ft.freezeTick;

    const std::size_t nw = src._workers.size();
    parcel->workers.resize(nw);
    for (std::size_t w = 0; w < nw; ++w) {
        svc::Tenant::Worker &sw = *src._workers[w];
        MigrationParcel::WorkerState &pw = parcel->workers[w];
        hv::AccelHandle &h = *sw.handle;
        pw.ctx = std::move(ft.exportCtx[w]);
        pw.batchLeft = sw.batchLeft;
        pw.inflight = std::move(sw.inflight);
        // 64 B per ring entry; an MMIO worker's one request adds
        // nothing beyond the context page below.
        if (h.ringEnabled())
            parcel->bytes += 64ULL * pw.inflight.size();

        pw.windowBase = h.vaccel().windowBase().value();
        const std::uint64_t brk = h.heap().registeredBytes();
        pw.memory.resize(brk);
        if (brk)
            h.memRead(mem::Gva(pw.windowBase), pw.memory.data(), brk);
        // Window image plus a page of context/bookkeeping overhead.
        parcel->bytes += brk + 4096;

        // The source worker is now empty; its in-flight request (if
        // any) travels inside pw and completes on the destination.
        // Ring contents themselves ride the window image above.
        sw.batchLeft = 0;
        sw.inflight.clear();
    }

    parcel->bytes += 64ULL * src._queue.size();
    parcel->queue = std::move(src._queue);
    src._queue.clear();
    parcel->gen = std::move(src._gen);
    parcel->nextId = src._nextId;
    src._mode = svc::Tenant::Mode::kDetached;

    ft.state = MigState::kInFlight;
    ft.exportCtx.clear();

    // Serialization time on the wire at the configured bandwidth,
    // on top of the link's propagation latency.
    const auto wire_ns = static_cast<std::uint64_t>(
        static_cast<double>(parcel->bytes) * 8.0 / _cfg.migrationGbps);
    _migrationBytes += parcel->bytes;
    const sim::Tick delay = linkLatency(parcel->srcNode, parcel->dstNode) +
                            wire_ns * sim::kTickNs;
    _eq.scheduleIn(delay, [this, p = std::move(parcel)]() {
        ++_sched.parcels;
        importParcel(*p);
    });
}

void
Cluster::importParcel(MigrationParcel &p)
{
    FleetTenant &ft = _tenants[p.tenant];
    svc::Tenant &dst = *ft.bindings[p.dstNode];
    hv::System &sys = *_nodes[p.dstNode];

    OPTIMUS_ASSERT(ft.state == MigState::kInFlight,
                   "fleet: parcel for tenant not in flight");
    OPTIMUS_ASSERT(p.workers.size() == dst._workers.size(),
                   "fleet: worker count mismatch across nodes");

    for (std::size_t w = 0; w < p.workers.size(); ++w) {
        MigrationParcel::WorkerState &pw = p.workers[w];
        svc::Tenant::Worker &dw = *dst._workers[w];
        hv::AccelHandle &h = *dw.handle;

        // Identical binding creation order on every node (addTenant)
        // is what makes these hold.
        OPTIMUS_ASSERT(
            h.vaccel().windowBase().value() == pw.windowBase,
            "fleet: DMA window base differs across nodes");
        OPTIMUS_ASSERT(
            h.heap().registeredBytes() == pw.memory.size(),
            "fleet: DMA heap layout differs across nodes");

        // Memory image first — the preemption path saved the device
        // blob into the window, so this write carries it too (and,
        // for ring tenants, the ring entries and cursor lines).
        if (!pw.memory.empty())
            h.memWrite(mem::Gva(pw.windowBase), pw.memory.data(),
                       pw.memory.size());
        if (h.ringEnabled())
            h.ringResync(); // reload queue cursors from the image
        dw.batchLeft = pw.batchLeft;
        dw.inflight = std::move(pw.inflight);
        // Ring completions still to come land in the imported ring —
        // importContext's error delivery among them — and run the
        // worker's handler there.
        sys.hv.importContext(h.vaccel(), pw.ctx);
    }

    OPTIMUS_ASSERT(dst._queue.empty(),
                   "fleet: destination binding has queued work");
    dst._queue = std::move(p.queue);
    dst._gen = std::move(p.gen);
    dst._nextId = std::max(dst._nextId, p.nextId);
    dst._mode = svc::Tenant::Mode::kActive;

    svc::ServicePlane &plane = *_planes[p.dstNode];
    for (std::size_t w = 0; w < p.workers.size(); ++w) {
        // An MMIO job that finished (or was force-reset by the export
        // timeout) before the parcel shipped has no doorbell to come:
        // settle it here. An error rides the normal retry path.
        const accel::Status st = p.workers[w].ctx.visibleStatus;
        if (!dst._workers[w]->handle->ringEnabled() &&
            (st == accel::Status::kDone || st == accel::Status::kError))
            plane.complete(dst, *dst._workers[w], st);
    }
    plane.dispatch(dst);

    ft.node = p.dstNode;
    ft.state = MigState::kSettled;
    ft.lastMigration = now();
    _blackoutNs.sample((now() - p.freezeTick) / sim::kTickNs);
    ++_migrationsCompleted;

    // Restart the open-loop chain here (no-op past the horizon or
    // for closed-loop tenants), then re-admit arrivals that were
    // forwarded while the parcel was on the wire.
    _planes[ft.node]->resumeOpenArrivals(dst);
    for (int user : ft.pendingStrays)
        _planes[ft.node]->injectArrival(dst, user);
    ft.pendingStrays.clear();
}

void
Cluster::forwardStray(unsigned from, const svc::Tenant &b, int user)
{
    auto it = _byBinding.find(&b);
    OPTIMUS_ASSERT(it != _byBinding.end(),
                   "fleet: stray from unknown binding");
    const std::size_t ti = it->second;
    const FleetTenant &ft = _tenants[ti];
    // To the tenant's node, or to where its parcel is headed.
    const unsigned to =
        ft.state == MigState::kInFlight ? ft.dst : ft.node;
    ++_straysOnWire;
    _eq.scheduleIn(linkLatency(from, to), [this, ti, user]() {
        --_straysOnWire;
        FleetTenant &t = _tenants[ti];
        if (t.state == MigState::kInFlight) {
            // Re-injected by importParcel().
            t.pendingStrays.push_back(user);
            return;
        }
        // Settled or freezing: the active binding admits (a frozen
        // binding still queues arrivals).
        _planes[t.node]->injectArrival(*t.bindings[t.node], user);
    });
}

void
Cluster::barrierStep()
{
    if (_cfg.rebalanceInterval != 0 && now() >= _nextRebalance) {
        while (now() >= _nextRebalance)
            _nextRebalance += _cfg.rebalanceInterval;
        if (auto mv = _gsched->rebalance(now()))
            migrateTenant(mv->tenant, mv->dst);
    }
    if (_probe)
        _probe();
}

bool
Cluster::quiesced() const
{
    if (_straysOnWire != 0)
        return false;
    for (const auto &p : _planes)
        if (!p->idle())
            return false;
    for (const auto &ft : _tenants)
        if (ft.state != MigState::kSettled)
            return false;
    return true;
}

bool
Cluster::finished() const
{
    return now() >= _horizon && quiesced();
}

void
Cluster::run(sim::Tick window)
{
    const sim::EventQueue::TopLevel top(_eq, "fleet::Cluster::run");
    for (auto &p : _planes)
        p->beginWindow(window);
    _horizon = now() + window;
    if (_cfg.rebalanceInterval != 0)
        _nextRebalance = now() + _cfg.rebalanceInterval;

    barrierStep();
    while (!finished()) {
        const sim::Tick tmin = _eq.nextEventTick();
        if (tmin == sim::kTickForever) {
            // The queue may legitimately drain short of the horizon
            // (every arrival chain exhausted and served — time cannot
            // advance without events), but never with work or a
            // migration in flight: that would be a lost parcel or a
            // stuck freeze.
            if (!quiesced()) {
                OPTIMUS_FATAL("fleet: simulation drained with work in "
                              "flight (stuck migration or lost "
                              "arrival)");
            }
            return;
        }
        if (_window == sim::kTickForever)
            _eq.runAll();
        else
            _eq.runUntil(tmin + _window - 1);
        barrierStep();
    }
}

std::uint64_t
Cluster::nodeLoad(unsigned n) const
{
    std::uint64_t load = 0;
    for (const FleetTenant &ft : _tenants) {
        if (ft.node != n || ft.state != MigState::kSettled)
            continue;
        const svc::Tenant &b = *ft.bindings[n];
        load += b.queueLength();
        for (const auto &w : b._workers)
            if (!w->inflight.empty())
                ++load;
    }
    return load;
}

// ----------------------------------------------------- aggregation

sim::Histogram
Cluster::tenantE2e(std::size_t t) const
{
    sim::Histogram h(nullptr, "e2e_ns", "merged");
    for (const svc::Tenant *b : _tenants[t].bindings)
        h.merge(b->e2eHist());
    return h;
}

sim::Histogram
Cluster::nodeE2e(unsigned n) const
{
    sim::Histogram h(nullptr, "e2e_ns", "merged");
    for (const FleetTenant &ft : _tenants)
        h.merge(ft.bindings[n]->e2eHist());
    return h;
}

sim::Histogram
Cluster::fleetE2e() const
{
    sim::Histogram h(nullptr, "e2e_ns", "merged");
    for (const FleetTenant &ft : _tenants)
        for (const svc::Tenant *b : ft.bindings)
            h.merge(b->e2eHist());
    return h;
}

std::uint64_t
Cluster::fleetArrivals() const
{
    std::uint64_t v = 0;
    for (const FleetTenant &ft : _tenants)
        for (const svc::Tenant *b : ft.bindings)
            v += b->arrivals();
    return v;
}

std::uint64_t
Cluster::fleetCompleted() const
{
    std::uint64_t v = 0;
    for (const FleetTenant &ft : _tenants)
        for (const svc::Tenant *b : ft.bindings)
            v += b->completed();
    return v;
}

std::uint64_t
Cluster::fleetGoodput() const
{
    std::uint64_t v = 0;
    for (const FleetTenant &ft : _tenants)
        for (const svc::Tenant *b : ft.bindings)
            v += b->goodput();
    return v;
}

std::uint64_t
Cluster::fleetSloViolations() const
{
    std::uint64_t v = 0;
    for (const FleetTenant &ft : _tenants)
        for (const svc::Tenant *b : ft.bindings)
            v += b->sloViolations();
    return v;
}

std::uint64_t
Cluster::fleetDropped() const
{
    std::uint64_t v = 0;
    for (const FleetTenant &ft : _tenants)
        for (const svc::Tenant *b : ft.bindings)
            v += b->dropped();
    return v;
}

std::uint64_t
Cluster::fingerprint() const
{
    sim::Fnv1a h;
    for (const auto &p : _planes)
        h.add(p->fingerprint());
    h.add(_migrationsStarted);
    h.add(_migrationsCompleted);
    h.add(_migrationBytes);
    h.add(_blackoutNs.count());
    h.add(_blackoutNs.sum());
    h.add(_blackoutNs.min());
    h.add(_blackoutNs.max());
    return h.value();
}

} // namespace optimus::fleet

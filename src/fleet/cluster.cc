/**
 * @file
 * fleet::Cluster / fleet::GlobalScheduler implementation. The
 * mechanics live here; see fleet.hh for the architecture and the
 * determinism contract. The one rule everything below obeys: event
 * callbacks (channel receives, stray sinks, export completions) only
 * record into per-node or per-tenant state; all decisions and every
 * synchronous guest-API call happen in barrierStep(), which the
 * EpochScheduler runs at epoch barriers when no domain executes.
 */

#include "fleet/fleet.hh"

#include <algorithm>

#include "sim/fnv.hh"
#include "sim/logging.hh"

namespace optimus::fleet {

const char *
policyName(Policy p)
{
    switch (p) {
      case Policy::kLeastLoaded:
        return "least-loaded";
      case Policy::kLocality:
        return "locality";
      case Policy::kSloAware:
        return "slo-aware";
    }
    return "?";
}

Policy
parsePolicy(const std::string &s)
{
    if (s == "least-loaded")
        return Policy::kLeastLoaded;
    if (s == "locality")
        return Policy::kLocality;
    if (s == "slo-aware")
        return Policy::kSloAware;
    OPTIMUS_FATAL("unknown fleet policy '%s' "
                  "(choices: least-loaded, locality, slo-aware)",
                  s.c_str());
}

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

Cluster::Cluster(ClusterConfig cfg, unsigned sim_threads)
    : _cfg(std::move(cfg)),
      _domains(_cfg.nodes),
      _sched(_domains, sim_threads == 0 ? sim::defaultSimThreads()
                                        : sim_threads)
{
    _strays.resize(_cfg.nodes);
    _inbox.resize(_cfg.nodes);

    for (unsigned i = 0; i < _cfg.nodes; ++i) {
        _nodes.push_back(
            std::make_unique<hv::System>(_domains, _sched, i, _cfg.node));
        _planes.push_back(
            std::make_unique<svc::ServicePlane>(*_nodes.back()));
        const unsigned node_idx = i;
        _planes.back()->setStrayArrivalSink(
            [this, node_idx](svc::Tenant &t, int user) {
                // Event context: record only; drainStrays() routes
                // at the next barrier.
                _strays[node_idx].push_back(Stray{&t, user});
            });
    }

    // One combined barrier hook for the shared scheduler (per-node
    // hooks would overwrite each other): flush every node's trace
    // lanes in node order, keeping the merged stream byte-stable.
    _sched.setBarrierHook([this]() {
        for (auto &n : _nodes)
            n->trace.flushMerged();
    });

    _links.resize(_cfg.nodes);
    for (unsigned s = 0; s < _cfg.nodes; ++s) {
        _links[s].resize(_cfg.nodes);
        for (unsigned d = 0; d < _cfg.nodes; ++d) {
            if (s == d)
                continue;
            const sim::Tick lat = rackOf(s) == rackOf(d)
                                      ? _cfg.rackLinkLatency
                                      : _cfg.interRackLinkLatency;
            auto ch = std::make_unique<sim::Channel<ParcelPtr>>(
                _domains, s, d, lat,
                sim::strprintf("fleet.link%u_%u", s, d),
                sim::ChannelBase::Delivery::kDeferred);
            const unsigned dst_idx = d;
            ch->onReceive([this, dst_idx](ParcelPtr p) {
                // Destination node's event context: inbox only.
                _inbox[dst_idx].push_back(std::move(p));
            });
            _links[s][d] = std::move(ch);
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
    ft.exportState.assign(nw, ExportState::kRetry);
    ft.exportCtx.assign(nw, hv::VaccelContext{});
    issueExports(ti);
    return true;
}

void
Cluster::issueExports(std::size_t ti)
{
    FleetTenant &ft = _tenants[ti];
    svc::Tenant &src = *ft.bindings[ft.node];
    hv::System &sys = *_nodes[ft.node];
    for (std::size_t w = 0; w < ft.exportState.size(); ++w) {
        if (ft.exportState[w] != ExportState::kRetry)
            continue;
        // A busy worker whose vaccel is not (yet) running has an
        // asynchronous START trap still in flight (dispatch issues
        // them without waiting). Exporting now would capture an idle
        // context and strand the job when the trap lands on the
        // neutralized source vaccel — hold off until it is absorbed.
        // The ring path's analogue is a publish whose kick has not
        // landed yet: the guest cursor runs ahead of the hypervisor
        // mirror, so the captured context would miss the newest
        // entries and the destination poller would never fetch them.
        if (src._workers[w]->handle->ringEnabled()) {
            if (src._workers[w]->handle->submitQueue().produced() >
                src._workers[w]->handle->vaccel().ringProdSeq())
                continue; // kick in flight; stays kRetry
        } else if (src._workers[w]->busy &&
                   src._workers[w]->handle->vaccel().visibleStatus() !=
                       accel::Status::kRunning)
            continue; // stays kRetry for the next barrier
        ft.exportState[w] = ExportState::kPending;
        hv::VirtualAccel &v = src._workers[w]->handle->vaccel();
        sys.hv.exportContext(
            v, [this, ti, w](bool ok, hv::VaccelContext ctx) {
                // Event context (or inline): record the outcome; the
                // freeze state machine advances at the next barrier.
                FleetTenant &t = _tenants[ti];
                if (!ok) {
                    t.exportState[w] = ExportState::kRetry;
                    return;
                }
                t.exportCtx[w] = std::move(ctx);
                t.exportState[w] = ExportState::kDone;
            });
    }
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
        pw.ctx = std::move(ft.exportCtx[w]);
        pw.busy = sw.busy;
        pw.cur = sw.cur;
        pw.issued = sw.issued;
        pw.batchLeft = sw.batchLeft;
        pw.inflight = std::move(sw.inflight);
        parcel->bytes += 64ULL * pw.inflight.size();

        hv::AccelHandle &h = *sw.handle;
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
        sw.busy = false;
        sw.done = false;
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
    ft.exportState.clear();
    ft.exportCtx.clear();

    // Serialization time on the wire at the configured bandwidth,
    // on top of the link's propagation latency.
    const auto wire_ns = static_cast<std::uint64_t>(
        static_cast<double>(parcel->bytes) * 8.0 / _cfg.migrationGbps);
    _migrationBytes += parcel->bytes;
    _links[parcel->srcNode][parcel->dstNode]->send(
        std::move(parcel), wire_ns * sim::kTickNs);
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
        dw.busy = pw.busy;
        dw.cur = pw.cur;
        dw.issued = pw.issued;
        dw.batchLeft = pw.batchLeft;
        dw.done = false;
        dw.inflight = std::move(pw.inflight);
        sys.hv.importContext(h.vaccel(), pw.ctx);

        if (h.ringEnabled()) {
            // Ring completions never use the mailbox: finished (or
            // error-posted) entries are already in the imported ring
            // memory — or are posted into it by importContext's error
            // delivery — and the next pump() polls them out against
            // the restored inflight queue.
            dw.busy = !dw.inflight.empty();
        } else if (dw.busy &&
                   (pw.ctx.visibleStatus == accel::Status::kDone ||
                    pw.ctx.visibleStatus == accel::Status::kError)) {
            // The job already finished (or was force-reset by the
            // export timeout) before the parcel shipped; synthesize
            // the completion mailbox the doorbell would have written
            // so the next pump() accounts it here. An error rides
            // the service plane's normal retry path.
            dw.done = true;
            dw.doneStatus = pw.ctx.visibleStatus;
            dw.doneTick = now();
        }
    }

    OPTIMUS_ASSERT(dst._queue.empty(),
                   "fleet: destination binding has queued work");
    dst._queue = std::move(p.queue);
    dst._gen = std::move(p.gen);
    dst._nextId = std::max(dst._nextId, p.nextId);
    dst._mode = svc::Tenant::Mode::kActive;
    // The imported queue, mailboxes and ring entries are pending work
    // the destination plane's pump must visit.
    _planes[p.dstNode]->markReady(dst);

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
Cluster::pumpPlanes()
{
    for (auto &p : _planes)
        if (p->anyReady())
            p->pump();
}

void
Cluster::drainInboxes()
{
    for (unsigned n = 0; n < numNodes(); ++n) {
        for (ParcelPtr &p : _inbox[n])
            importParcel(*p);
        _inbox[n].clear();
    }
}

void
Cluster::drainStrays()
{
    for (unsigned n = 0; n < numNodes(); ++n) {
        for (const Stray &s : _strays[n]) {
            auto it = _byBinding.find(s.binding);
            OPTIMUS_ASSERT(it != _byBinding.end(),
                           "fleet: stray from unknown binding");
            FleetTenant &ft = _tenants[it->second];
            if (ft.state == MigState::kInFlight) {
                // Buffer until the parcel lands; re-injected by
                // importParcel().
                ft.pendingStrays.push_back(s.user);
            } else {
                // Settled or freezing: the active binding admits
                // (frozen bindings still queue arrivals).
                _planes[ft.node]->injectArrival(*ft.bindings[ft.node],
                                                s.user);
            }
        }
        _strays[n].clear();
    }
}

void
Cluster::progressFreezes()
{
    if (_migrationsStarted == _migrationsCompleted)
        return; // no tenant is freezing (or in flight)
    for (std::size_t ti = 0; ti < _tenants.size(); ++ti) {
        FleetTenant &ft = _tenants[ti];
        if (ft.state != MigState::kFreezing)
            continue;
        issueExports(ti); // re-issue any kRetry workers
        bool all_done = true;
        for (ExportState s : ft.exportState)
            if (s != ExportState::kDone)
                all_done = false;
        if (all_done)
            assembleAndSend(ti);
    }
}

void
Cluster::barrierStep()
{
    // Account completions and consume mailboxes first so parcel
    // assembly below never races a finished-but-unaccounted job.
    pumpPlanes();
    drainInboxes();
    drainStrays();
    progressFreezes();

    if (_cfg.rebalanceInterval != 0 && now() >= _nextRebalance) {
        while (now() >= _nextRebalance)
            _nextRebalance += _cfg.rebalanceInterval;
        if (auto mv = _gsched->rebalance(now()))
            migrateTenant(mv->tenant, mv->dst);
    }
    if (_probe)
        _probe();

    // Migrations the rebalancer or probe just started can complete
    // their exports inline (idle workers detach synchronously);
    // assemble them now — with the fleet otherwise idle there may be
    // no later event, hence no later barrier, to do it.
    progressFreezes();

    // Final pump: dispatch anything the steps above injected or
    // imported, so the epoch set never drains with work queued.
    pumpPlanes();
}

bool
Cluster::quiesced() const
{
    for (const auto &p : _planes)
        if (!p->idle())
            return false;
    for (const auto &ft : _tenants)
        if (ft.state != MigState::kSettled ||
            !ft.pendingStrays.empty())
            return false;
    for (const auto &in : _inbox)
        if (!in.empty())
            return false;
    for (const auto &st : _strays)
        if (!st.empty())
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
    for (auto &p : _planes)
        p->beginWindow(window);
    _horizon = now() + window;
    if (_cfg.rebalanceInterval != 0)
        _nextRebalance = now() + _cfg.rebalanceInterval;

    const bool stopped = _sched.pumpUntil(
        [this]() { return finished(); }, [this]() { barrierStep(); });
    // The set may legitimately drain short of the horizon (every
    // arrival chain exhausted and served — time cannot advance
    // without events), but never with work or a migration in
    // flight: that would be a lost parcel or a stuck freeze.
    if (!stopped && !quiesced()) {
        OPTIMUS_FATAL("fleet: simulation drained with work in "
                      "flight (stuck migration or lost arrival)");
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
            if (w->busy)
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

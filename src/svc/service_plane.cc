#include "svc/service_plane.hh"

#include <algorithm>

#include "sim/fnv.hh"
#include "sim/logging.hh"
#include "sim/telemetry.hh"

namespace optimus::svc {

namespace {

void
foldHistogram(sim::Fnv1a &f, const sim::Histogram &h)
{
    f.add(h.count());
    f.add(h.sum());
    f.add(h.min());
    f.add(h.max());
    const auto &b = h.buckets();
    for (std::size_t i = 0; i < b.size(); ++i) {
        if (b[i] == 0)
            continue;
        f.add(i);
        f.add(b[i]);
    }
}

} // namespace

Tenant::Tenant(const TenantConfig &cfg, sim::TelemetryNode *node)
    : _cfg(cfg),
      _arrivals(node, "arrivals", "requests generated"),
      _admitted(node, "admitted", "requests accepted into the queue"),
      _rejected(node, "rejected",
                "requests refused by admission control (queue full)"),
      _completed(node, "completed", "requests finished successfully"),
      _errors(node, "errors", "request attempts completed as ERROR"),
      _retries(node, "retries", "error'd requests re-queued"),
      _dropped(node, "dropped",
               "requests abandoned after maxAttempts errors"),
      _batches(node, "batches", "dispatch batches issued"),
      _sloViolations(node, "slo_violations",
                     "completions over the SLO target"),
      _goodput(node, "goodput", "completions within the SLO target"),
      _verifyFailures(node, "verify_failures",
                      "completions whose output failed verify()"),
      _queueNs(node, "queue_ns", "admission-to-issue wait (ns)"),
      _serviceNs(node, "service_ns", "issue-to-completion time (ns)"),
      _e2eNs(node, "e2e_ns", "admission-to-completion latency (ns)")
{
    if (_cfg.users == 0)
        _gen = std::make_unique<ArrivalGen>(_cfg.arrivals, _cfg.seed);
}

ServicePlane::ServicePlane(hv::System &sys)
    : _sys(sys), _node(&sys.telemetry.node("svc"))
{
}

Tenant &
ServicePlane::addTenant(const TenantConfig &cfg)
{
    if (cfg.vaccels == 0)
        OPTIMUS_FATAL("svc: tenant '%s' needs at least one vaccel",
                   cfg.name.c_str());
    if (cfg.queueDepth == 0)
        OPTIMUS_FATAL("svc: tenant '%s' needs a nonzero queueDepth",
                   cfg.name.c_str());

    auto t = std::unique_ptr<Tenant>(
        new Tenant(cfg, &_sys.telemetry.node("svc." + cfg.name)));

    // One VM per tenant; each worker is a process of that VM with
    // its own virtual accelerator on the tenant's slot (temporal
    // multiplexing among workers and with co-tenant VMs).
    auto &vm = _sys.hv.createVm("svc_" + cfg.name, 10ULL << 30);
    for (unsigned i = 0; i < cfg.vaccels; ++i) {
        auto &proc =
            vm.createProcess(sim::strprintf("worker%u", i));
        auto &vaccel = _sys.hv.createVirtualAccel(proc, cfg.slot);
        _handles.push_back(
            std::make_unique<hv::AccelHandle>(_sys.hv, vaccel));
        hv::AccelHandle &h = *_handles.back();

        auto w = std::make_unique<Tenant::Worker>();
        w->handle = &h;
        // Prepare the job once (synchronous, top level); every
        // request re-STARTs the cached registers.
        w->wl = hv::workload::Workload::create(
            cfg.app, h, cfg.bytes, cfg.seed + i);
        w->wl->program();
        h.setupStateBuffer();

        if (cfg.cmdPath == ring::CmdPath::kRing) {
            // Ring path: completions ride the ring, and the handler
            // runs as each one lands (the daemon polls its completion
            // line) — per-job traps disappear from the hot path.
            std::uint32_t entries =
                cfg.ringEntries != 0
                    ? cfg.ringEntries
                    : ring::defaultEntries(cfg.batchMax);
            h.setupRing(entries);
        }
        Tenant::Worker *wp = w.get();
        Tenant *tp = t.get();
        vaccel.setCompletionHandler([this, tp, wp](accel::Status st) {
            onCompletion(*tp, *wp, st);
        });
        t->_workers.push_back(std::move(w));
    }

    _tenants.push_back(std::move(t));
    return *_tenants.back();
}

bool
ServicePlane::admit(Tenant &t, int user)
{
    ++t._arrivals;
    if (t._queue.size() >= t._cfg.queueDepth) {
        // Backpressure: counted, never silently dropped.
        ++t._rejected;
        return false;
    }
    ++t._admitted;
    Request r;
    r.id = t._nextId++;
    r.arrival = _sys.eq.now();
    r.user = user;
    t._queue.push_back(r);
    dispatch(t);
    return true;
}

void
ServicePlane::scheduleOpenArrival(Tenant &t)
{
    sim::Tick at = t._epoch + t._gen->nextOffset();
    if (at >= _horizon)
        return;
    // A chain restarted after a migration (resumeOpenArrivals) may
    // draw offsets the parcel's flight has already passed; those
    // arrivals land at once, as a catch-up burst.
    _sys.eq.scheduleAt(std::max(at, _sys.eq.now()),
                       [this, &t]() { onOpenArrival(t); });
}

void
ServicePlane::onOpenArrival(Tenant &t)
{
    if (t._mode == Tenant::Mode::kDetached) {
        // The stream migrated away while this arrival event was in
        // flight; forward it (uncounted — the re-injection's admit
        // will count it) and let the chain die here.
        if (_straySink)
            _straySink(t, -1);
        return;
    }
    admit(t, -1);
    scheduleOpenArrival(t);
}

void
ServicePlane::onClosedArrival(Tenant &t, int user)
{
    if (t._mode == Tenant::Mode::kDetached) {
        if (_straySink)
            _straySink(t, user);
        return;
    }
    if (_sys.eq.now() >= _horizon)
        return;
    if (!admit(t, user)) {
        // Rejected user backs off and retries; the 1us floor keeps a
        // zero-think population from spinning the event queue.
        sim::Tick backoff =
            std::max<sim::Tick>(t._cfg.think, sim::kTickUs);
        _sys.eq.scheduleIn(backoff,
                           [this, &t, user]() {
                               onClosedArrival(t, user);
                           });
    }
}

void
ServicePlane::beginWindow(sim::Tick window)
{
    _horizon = _sys.eq.now() + window;
    // batchMin stops gating at the horizon: serve the partial batches
    // no later arrival will complete.
    _sys.eq.scheduleAt(_horizon, [this]() {
        for (auto &t : _tenants)
            dispatch(*t);
        stopIfDrained();
    });
    for (auto &tp : _tenants) {
        Tenant &t = *tp;
        t._epoch = _sys.eq.now();
        if (t._mode != Tenant::Mode::kActive)
            continue; // inactive fleet binding: its stream (and its
                      // users) live on whichever node is active
        if (t._gen) {
            scheduleOpenArrival(t);
        } else {
            // Closed loop: stagger the initial population by 1us per
            // user so the opening burst is spread deterministically.
            for (unsigned u = 0; u < t._cfg.users; ++u) {
                int user = static_cast<int>(u);
                _sys.eq.scheduleIn(
                    static_cast<sim::Tick>(u) * sim::kTickUs,
                    [this, &t, user]() {
                        onClosedArrival(t, user);
                    });
            }
        }
    }
}

void
ServicePlane::injectArrival(Tenant &t, int user)
{
    if (user >= 0) {
        onClosedArrival(t, user);
        return;
    }
    // A forwarded open-loop arrival: one request, no chain — the
    // generator's chain is restarted by resumeOpenArrivals().
    admit(t, -1);
}

void
ServicePlane::resumeOpenArrivals(Tenant &t)
{
    if (t._gen && _sys.eq.now() < _horizon)
        scheduleOpenArrival(t);
}

void
ServicePlane::run(sim::Tick window)
{
    beginWindow(window);
    // The handlers do all the work; the pump only advances time until
    // the window has closed and every queue and worker has drained.
    // The horizon event keeps the set alive until the window closes,
    // so a drain with work left is a request no event will serve.
    // Stop source: the horizon event or the completion that leaves
    // the plane idle (stopIfDrained).
    _draining = true;
    const bool stopped = _sys.eq.pumpUntil(
        [this]() { return _sys.eq.now() >= _horizon && idle(); });
    _draining = false;
    if (!stopped && !idle()) {
        OPTIMUS_FATAL("svc: simulation drained with requests queued or "
                      "in flight");
    }
}

void
ServicePlane::settle(Tenant &t, Tenant::Worker &w,
                     const Request &req, accel::Status st,
                     sim::Tick issued, sim::Tick done_tick)
{
    if (st == accel::Status::kDone) {
        std::uint64_t service = (done_tick - issued) / sim::kTickNs;
        std::uint64_t e2e =
            (done_tick - req.arrival) / sim::kTickNs;
        // Untimed: reads guest memory and the hypervisor's peeks.
        if (!w.wl->verify())
            ++t._verifyFailures;
        ++t._completed;
        t._serviceNs.sample(service);
        t._e2eNs.sample(e2e);
        if (t._cfg.sloNs != 0 && e2e > t._cfg.sloNs)
            ++t._sloViolations;
        else
            ++t._goodput;
        if (req.user >= 0 && _sys.eq.now() < _horizon) {
            // Closed loop: the user thinks, then returns.
            sim::Tick target = done_tick + t._cfg.think;
            sim::Tick now = _sys.eq.now();
            int user = req.user;
            Tenant *tp2 = &t;
            _sys.eq.scheduleIn(
                target > now ? target - now : sim::Tick{0},
                [this, tp2, user]() {
                    onClosedArrival(*tp2, user);
                });
        }
        return;
    }
    // ERROR: the fault path (e.g. a watchdog quarantine) completed
    // this request with ERR_STATUS bits set — on the ring path, in
    // the completion entry's err word. The plane retries up to
    // maxAttempts; the retry's START (or publish kick) clears the
    // quarantine and reclaims a slot.
    ++t._errors;
    if (req.attempts < t._cfg.maxAttempts) {
        ++t._retries;
        t._queue.push_front(req);
    } else {
        ++t._dropped;
        if (req.user >= 0 && _sys.eq.now() < _horizon) {
            int user = req.user;
            Tenant *tp2 = &t;
            _sys.eq.scheduleIn(
                std::max<sim::Tick>(t._cfg.think, sim::kTickUs),
                [this, tp2, user]() {
                    onClosedArrival(*tp2, user);
                });
        }
    }
}

void
ServicePlane::onCompletion(Tenant &t, Tenant::Worker &w,
                           accel::Status st)
{
    if (t._mode == Tenant::Mode::kDetached)
        return; // its work left with the migration parcel
    if (!w.handle->ringEnabled()) {
        complete(t, w, st);
    } else {
        // Ring path: consume every posted completion in order and
        // match it against the inflight queue.
        ring::CompleteEntry e;
        while (w.handle->ringPoll(e)) {
            OPTIMUS_ASSERT(!w.inflight.empty(),
                           "ring completion without an inflight "
                           "request");
            Inflight inf = w.inflight.front();
            w.inflight.pop_front();
            OPTIMUS_ASSERT(e.seq == inf.seq,
                           "ring completion out of order");
            settle(t, w, inf.req, static_cast<accel::Status>(e.status),
                   inf.issued, static_cast<sim::Tick>(e.tick));
        }
        w.busy = !w.inflight.empty();
    }
    dispatch(t);
    stopIfDrained();
}

void
ServicePlane::stopIfDrained()
{
    if (_draining && _sys.eq.now() >= _horizon && idle())
        _sys.eq.requestStop();
}

void
ServicePlane::complete(Tenant &t, Tenant::Worker &w, accel::Status st)
{
    if (!w.busy)
        return; // no request of this worker is in flight
    w.busy = false;
    settle(t, w, w.cur, st, w.issued, _sys.eq.now());
}

void
ServicePlane::dispatch(Tenant &t)
{
    if (t._mode != Tenant::Mode::kActive)
        return; // frozen/detached: queued work travels instead
    for (auto &wp : t._workers) {
        Tenant::Worker &w = *wp;
        if (w.handle->ringEnabled()) {
            // Ring path: keep up to batchMax requests outstanding in
            // the submit ring. Entries are pushed back-to-back and
            // published once — one kick, zero traps.
            if (t._queue.empty())
                continue;
            // Batch formation mirrors the MMIO path: an idle ring
            // waits for batchMin queued requests while arrivals can
            // still come; drains are never gated.
            if (w.inflight.empty() && _sys.eq.now() < _horizon &&
                t._queue.size() < t._cfg.batchMin)
                continue;
            ring::SubmitQueue &sq = w.handle->submitQueue();
            std::size_t limit = std::max(1u, t._cfg.batchMax);
            std::uint64_t pushed = 0;
            while (!t._queue.empty() &&
                   w.inflight.size() < limit && !sq.full()) {
                Inflight inf;
                inf.req = t._queue.front();
                t._queue.pop_front();
                ++inf.req.attempts;
                inf.issued = _sys.eq.now();
                inf.seq = sq.push(ring::op::kStart);
                t._queueNs.sample(
                    (inf.issued - inf.req.arrival) / sim::kTickNs);
                w.inflight.push_back(inf);
                ++pushed;
            }
            if (pushed == 0)
                continue;
            ++t._batches;
            sq.publish();
            // Asynchronous kick, like the async START below: nothing
            // waits on it; completions surface through the ring.
            _sys.hv.ringPublish(w.handle->vaccel(), sq.produced(),
                                nullptr);
            w.busy = true;
            continue;
        }
        if (w.busy || t._queue.empty())
            continue;
        if (w.batchLeft == 0) {
            // Batch formation: while arrivals can still come, wait
            // for batchMin queued requests; once the window closes
            // serve whatever is left so the drain cannot deadlock.
            if (_sys.eq.now() < _horizon &&
                t._queue.size() < t._cfg.batchMin)
                continue;
            w.batchLeft = static_cast<unsigned>(
                std::min<std::size_t>(std::max(1u, t._cfg.batchMax),
                                      t._queue.size()));
            ++t._batches;
        }
        w.cur = t._queue.front();
        t._queue.pop_front();
        --w.batchLeft;
        ++w.cur.attempts;
        w.busy = true;
        w.issued = _sys.eq.now();
        t._queueNs.sample((w.issued - w.cur.arrival) / sim::kTickNs);
        // Asynchronous START: schedule the trap and move on. Each
        // tenant's daemon issues from its own core, so dispatches
        // overlap in simulated time, and a handler may not pump
        // anyway. Nothing waits on the write: the worker stays busy
        // until its completion doorbell.
        _sys.hv.mmioWrite(w.handle->vaccel(), accel::reg::kCtrl,
                          accel::ctrl::kStart, nullptr);
    }
}

bool
ServicePlane::idle() const
{
    for (const auto &t : _tenants) {
        if (!t->_queue.empty())
            return false;
        for (const auto &w : t->_workers)
            if (w->busy)
                return false;
    }
    return true;
}

std::uint64_t
ServicePlane::fingerprint() const
{
    sim::Fnv1a f;
    for (const auto &tp : _tenants) {
        const Tenant &t = *tp;
        f.add(t.name());
        f.add(t.arrivals());
        f.add(t.admitted());
        f.add(t.rejected());
        f.add(t.completed());
        f.add(t.errors());
        f.add(t.retries());
        f.add(t.dropped());
        f.add(t.batches());
        f.add(t.sloViolations());
        f.add(t.goodput());
        f.add(t.verifyFailures());
        foldHistogram(f, t.queueHist());
        foldHistogram(f, t.serviceHist());
        foldHistogram(f, t.e2eHist());
    }
    return f.value();
}

} // namespace optimus::svc

#include "hv/system.hh"

namespace optimus::hv {

namespace {
thread_local SystemObserver *t_observer = nullptr;
} // namespace

SystemObserver *
SystemObserver::swap(SystemObserver *obs)
{
    SystemObserver *prev = t_observer;
    t_observer = obs;
    return prev;
}

SystemObserver *
SystemObserver::current()
{
    return t_observer;
}

System::System(PlatformConfig config)
    : _ownedDomains(std::make_unique<sim::DomainSet>()),
      _ownedSched(std::make_unique<sim::EpochScheduler>(*_ownedDomains)),
      domains(*_ownedDomains),
      eq(domains.queue(0)),
      sched(*_ownedSched),
      platform(eq, std::move(config), telemetry, trace),
      hv(platform),
      _observer(SystemObserver::current())
{
    // One domain and no channel: the scheduler runs each run() as one
    // epoch, and trace records dispatch inside the emitting event, so
    // neither trace lanes nor a barrier hook are needed.
    if (_observer)
        _observer->systemCreated(*this);
}

System::System(sim::DomainSet &ext_domains,
               sim::EpochScheduler &ext_sched, sim::DomainId domain,
               PlatformConfig config)
    : domains(ext_domains),
      eq(domains.queue(domain)),
      sched(ext_sched),
      platform(eq, std::move(config), telemetry, trace),
      hv(platform),
      _observer(SystemObserver::current())
{
    // Trace lanes are indexed by global domain id, so each node arms
    // the embedder's full set; lanes owned by sibling nodes simply
    // stay empty on this bus. The embedder installs the one barrier
    // hook that flushes every node's bus in node order — per-node
    // hooks would overwrite each other on the shared scheduler.
    trace.armDomains(domains.size());
    if (_observer)
        _observer->systemCreated(*this);
}

System::~System()
{
    // A cluster node publishes any records its lane buffered since
    // the last barrier (a lone System's bus has no lanes).
    trace.flushMerged();
    if (_observer)
        _observer->systemDestroyed(*this);
}

PlatformConfig
makeOptimusConfig(const std::string &app, std::uint32_t n,
                  sim::PlatformParams params)
{
    PlatformConfig cfg;
    cfg.params = params;
    cfg.mode = FabricMode::kOptimus;
    cfg.apps.assign(n, app);
    return cfg;
}

PlatformConfig
makePassthroughConfig(const std::string &app,
                      sim::PlatformParams params)
{
    PlatformConfig cfg;
    cfg.params = params;
    cfg.mode = FabricMode::kPassthrough;
    cfg.apps = {app};
    return cfg;
}

} // namespace optimus::hv

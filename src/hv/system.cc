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
    : _ownedEq(std::make_unique<sim::EventQueue>()),
      _ownedSched(std::make_unique<sim::EpochScheduler>(*_ownedEq)),
      eq(*_ownedEq),
      domains(eq),
      sched(*_ownedSched),
      platform(eq, std::move(config), telemetry, trace),
      hv(platform),
      _observer(SystemObserver::current())
{
    if (_observer)
        _observer->systemCreated(*this);
}

System::System(sim::EventQueue &ext_eq, sim::EpochScheduler &ext_sched,
               PlatformConfig config)
    : eq(ext_eq),
      domains(eq),
      sched(ext_sched),
      platform(eq, std::move(config), telemetry, trace),
      hv(platform),
      _observer(SystemObserver::current())
{
    if (_observer)
        _observer->systemCreated(*this);
}

System::~System()
{
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

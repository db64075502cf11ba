#include "fault/fault_injector.hh"

#include <utility>

#include "sim/logging.hh"

namespace optimus::fault {

using Kind = FaultDirective::Kind;

FaultInjector::FaultInjector(hv::System &sys, FaultPlan plan)
    : _sys(sys),
      _plan(std::move(plan)),
      _alive(std::make_shared<bool>(true)),
      _trace(&sys.trace),
      _comp(sys.trace.registerComponent("fault")),
      _injections(&sys.telemetry.node("fault"), "injections",
                  "faults injected"),
      _dmaDrops(&sys.telemetry.node("fault"), "dma_drops",
                "CCI-P responses dropped"),
      _dmaDelays(&sys.telemetry.node("fault"), "dma_delays",
                 "CCI-P responses delayed"),
      _xlatFaults(&sys.telemetry.node("fault"),
                  "forced_translation_faults",
                  "IOMMU translations forced to fault"),
      _poisoned(&sys.telemetry.node("fault"), "iotlb_poisoned",
                "IOTLB entries poisoned"),
      _wildIssued(&sys.telemetry.node("fault"), "wild_dmas_issued",
                  "out-of-window DMAs injected at auditors"),
      _wildCaught(&sys.telemetry.node("fault"), "wild_dmas_caught",
                  "injected wild DMAs rejected by an auditor")
{
    const auto &dirs = _plan.directives();
    for (std::uint32_t i = 0; i < dirs.size(); ++i) {
        const FaultDirective &d = dirs[i];
        switch (d.kind) {
          case Kind::kDrop:
          case Kind::kDelay: {
              Rule r{d, i, sim::Rng(0xfa17ULL ^ d.seed ^ i), 0};
              _dmaRules.push_back(std::move(r));
              break;
          }
          case Kind::kIommuFault: {
              Rule r{d, i, sim::Rng(0x10aaULL ^ d.seed ^ i), 0};
              _xlatRules.push_back(std::move(r));
              break;
          }
          case Kind::kWatchdog:
            _sys.hv.setWatchdog(d.deadline);
            break;
          case Kind::kHang:
          case Kind::kWedgeMmio:
          case Kind::kPoisonIotlb:
          case Kind::kWildDma:
            scheduleOneShot(d, i, 0);
            break;
        }
    }
    if (!_dmaRules.empty())
        _sys.platform.shell().setFaultHook(this);
    if (!_xlatRules.empty())
        _sys.platform.iommu().setTranslationFaultHook(this);
}

FaultInjector::~FaultInjector()
{
    *_alive = false;
    if (!_dmaRules.empty())
        _sys.platform.shell().setFaultHook(nullptr);
    if (!_xlatRules.empty())
        _sys.platform.iommu().setTranslationFaultHook(nullptr);
}

void
FaultInjector::scheduleOneShot(const FaultDirective &d,
                               std::uint32_t index,
                               std::uint64_t fired)
{
    sim::Tick now = _sys.eq.now();
    sim::Tick when = fired == 0 ? d.at : now + d.period;
    sim::Tick delay = when > now ? when - now : 0;
    auto alive = _alive;
    _sys.eq.scheduleIn(delay, [this, alive, d, index, fired]() {
        if (!*alive)
            return;
        fire(d, index);
        std::uint64_t n = fired + 1;
        std::uint64_t budget = d.count ? d.count : 1;
        if (d.period > 0 && (d.count == 0 || n < budget))
            scheduleOneShot(d, index, n);
    });
}

void
FaultInjector::noteInjection(const FaultDirective &d,
                             std::uint32_t index, std::uint64_t addr,
                             std::uint16_t vm, std::uint16_t proc)
{
    ++_injections;
    if (_trace && _trace->wants(sim::TraceKind::kFaultInject)) {
        sim::TraceRecord r;
        r.kind = sim::TraceKind::kFaultInject;
        r.comp = _comp;
        r.addr = addr;
        r.arg = index;
        r.tag = static_cast<std::uint16_t>(d.slot < 0 ? 0 : d.slot);
        r.vm = vm;
        r.proc = proc;
        _trace->emit(r);
    }
}

void
FaultInjector::fire(const FaultDirective &d, std::uint32_t index)
{
    std::uint32_t slot =
        d.slot < 0 ? 0 : static_cast<std::uint32_t>(d.slot);

    if (d.kind == Kind::kPoisonIotlb) {
        // A host-side fault: the auditor owner registers are on the
        // FPGA side, so poison records carry no tenant attribution.
        iommu::Iotlb &tlb = _sys.platform.iommu().iotlb();
        std::uint32_t idx = d.set % tlb.entries();
        if (tlb.poisonSet(idx))
            ++_poisoned;
        noteInjection(d, index, idx, sim::kNoOwner, sim::kNoOwner);
        return;
    }

    fpga::HardwareMonitor *m = _sys.platform.monitor();
    std::uint16_t vm = sim::kNoOwner;
    std::uint16_t proc = sim::kNoOwner;
    if (m && slot < m->numAccels()) {
        vm = m->auditor(slot).ownerVm();
        proc = m->auditor(slot).ownerProc();
    }

    switch (d.kind) {
      case Kind::kHang:
        _sys.platform.accel(slot).wedge();
        noteInjection(d, index, slot, vm, proc);
        break;
      case Kind::kWedgeMmio:
        _sys.platform.accel(slot).wedgeMmio();
        noteInjection(d, index, slot, vm, proc);
        break;
      case Kind::kWildDma:
        fireWildDma(d, index);
        break;
      default:
        break;
    }
}

void
FaultInjector::fireWildDma(const FaultDirective &d,
                           std::uint32_t index)
{
    fpga::HardwareMonitor *m = _sys.platform.monitor();
    if (!m) {
        // Pass-through has no auditors; there is nothing to catch a
        // wild DMA, which is precisely the paper's point.
        OPTIMUS_WARN("wild_dma skipped: no hardware monitor "
                     "(pass-through mode)");
        return;
    }
    std::uint32_t slot =
        d.slot < 0 ? 0 : static_cast<std::uint32_t>(d.slot);
    fpga::Auditor &aud = m->auditor(slot);
    const fpga::OffsetEntry &e = aud.offsetEntry();
    // First byte past the tenant's window — the canonical escape
    // attempt the auditor must reject (falls back to an arbitrary
    // out-of-window address when no entry is programmed yet).
    mem::Gva gva = e.valid ? mem::Gva(e.gvaBase + e.window + 0x1000)
                           : mem::Gva(0xdead0000000ULL);

    ccip::DmaTxnPtr txn = ccip::makeTxn(_sys.eq.arena());
    txn->isWrite = true;
    txn->gva = gva;
    txn->bytes = sim::kCacheLineBytes;
    auto alive = _alive;
    txn->onComplete = [this, alive](ccip::DmaTxn &t) {
        if (!*alive)
            return;
        if (t.error)
            ++_wildCaught;
    };
    ++_wildIssued;
    noteInjection(d, index, gva.value(), aud.ownerVm(),
                  aud.ownerProc());
    aud.dmaRequest(std::move(txn));
}

FaultInjector::Action
FaultInjector::onDmaResponse(const ccip::DmaTxn &txn,
                             sim::Tick *extra)
{
    sim::Tick now = _sys.eq.now();
    for (Rule &r : _dmaRules) {
        if (now < r.d.at)
            continue;
        if (r.d.slot >= 0 && txn.tag != r.d.slot)
            continue;
        if (r.d.vm >= 0 && txn.vm != r.d.vm)
            continue;
        if (r.d.count && r.used >= r.d.count)
            continue;
        if (r.d.rate < 1.0 && r.rng.uniform() >= r.d.rate)
            continue;
        ++r.used;
        noteInjection(r.d, r.index, txn.iova.value(), txn.vm,
                      txn.proc);
        if (r.d.kind == Kind::kDrop) {
            ++_dmaDrops;
            return Action::kDrop;
        }
        ++_dmaDelays;
        *extra = r.d.extra;
        return Action::kDelay;
    }
    return Action::kNone;
}

bool
FaultInjector::forceFault(mem::Iova iova, bool is_write,
                          std::uint16_t vm, std::uint16_t proc)
{
    (void)is_write;
    sim::Tick now = _sys.eq.now();
    for (Rule &r : _xlatRules) {
        if (now < r.d.at)
            continue;
        if (r.d.vm >= 0 && vm != r.d.vm)
            continue;
        if (r.d.slot >= 0) {
            // Slot filtering resolves the owning vaccel through
            // hypervisor state.
            hv::VirtualAccel *v = _sys.hv.vaccelForIova(iova);
            if (!v ||
                v->slot() != static_cast<std::uint32_t>(r.d.slot))
                continue;
        }
        if (r.d.count && r.used >= r.d.count)
            continue;
        if (r.d.rate < 1.0 && r.rng.uniform() >= r.d.rate)
            continue;
        ++r.used;
        ++_xlatFaults;
        noteInjection(r.d, r.index, iova.value(), vm, proc);
        return true;
    }
    return false;
}

} // namespace optimus::fault

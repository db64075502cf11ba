#include "hv/optimus.hh"

#include <algorithm>
#include <utility>

#include "fpga/mmio_layout.hh"
#include "sim/logging.hh"

namespace optimus::hv {

using accel::Status;
namespace reg = accel::reg;
namespace ctrl = accel::ctrl;

OptimusHv::OptimusHv(Platform &platform)
    : _platform(platform),
      _slots(platform.numAccels()),
      _comp(platform.trace().registerComponent("hv")),
      _traps(&platform.telemetry().node("hv"), "mmio_traps",
             "MMIO traps taken (trap-and-emulate)"),
      _hypercalls(&platform.telemetry().node("hv"), "hypercalls",
                  "shadow-paging page registrations"),
      _ctxSwitches(&platform.telemetry().node("hv"),
                   "context_switches",
                   "temporal-multiplexing context switches"),
      _forcedResets(&platform.telemetry().node("hv"), "forced_resets",
                    "accelerators reset after preempt timeout"),
      _rejectedPages(&platform.telemetry().node("hv"),
                     "rejected_pages",
                     "page registrations outside the DMA window"),
      _migrations(&platform.telemetry().node("hv"), "migrations",
                  "virtual accelerators migrated between slots"),
      _watchdogFires(&platform.telemetry().node("hv"),
                     "watchdog_fires",
                     "vaccels quarantined for lack of progress"),
      _slotResets(&platform.telemetry().node("hv"), "slot_resets",
                  "VCU slot resets issued for fault recovery"),
      _ringSubmits(&platform.telemetry().node("hv"), "ring_submits",
                   "command-ring publishes (doorbell-free submits)"),
      _ringCompletes(&platform.telemetry().node("hv"),
                     "ring_completes",
                     "completions delivered through tenant rings"),
      _ringKicks(&platform.telemetry().node("hv"), "ring_kicks",
                 "ring publish notifications propagated to pollers")
{
    for (std::uint32_t i = 0; i < platform.numAccels(); ++i) {
        platform.accel(i).setDoorbell(
            [this, i](accel::Accelerator &a) { onDoorbell(i, a); });
        platform.accel(i).setRingPostHook(
            [this, i](accel::Accelerator &a) { onRingPost(i, a); });
        platform.accel(i).setRingAckHook([this, i](accel::Accelerator &) {
            if (VirtualAccel *v = _slots[i].scheduled)
                wakeGuest(*v);
        });
        _slots[i].sliceTimer.bind(eventq(),
                                  [this, i]() { sliceExpired(i); });
        _slots[i].preemptTimer.bind(
            eventq(), [this, i]() { settleCede(i, false); });
    }
    // Translation faults are detected host-side (the IOMMU walk runs
    // across the package from the shell's front) but must be
    // attributed to a tenant — hypervisor state. The shell's fault
    // sink fires on the FPGA side after the faulted transaction
    // crosses back.
    _platform.shell().setTranslationFaultSink(
        [this](const ccip::DmaTxn &txn) {
            OPTIMUS_WARN("IO page fault at IOVA 0x%llx (%s)",
                         static_cast<unsigned long long>(
                             txn.iova.value()),
                         txn.isWrite ? "write" : "read");
            // Attribute the fault to the tenant whose slice the
            // faulting IOVA falls into, so it surfaces in that
            // guest's ERR_STATUS and nowhere else.
            if (VirtualAccel *v = vaccelForIova(txn.iova))
                noteError(*v, accel::errst::kDmaFault);
        });
}

guest::Vm &
OptimusHv::createVm(std::string name, std::uint64_t ram_bytes)
{
    _vms.push_back(std::make_unique<guest::Vm>(
        std::move(name), _platform.memory(), _platform.frames(),
        ram_bytes));
    return *_vms.back();
}

std::uint64_t
OptimusHv::sliceStride() const
{
    const auto &p = _platform.params();
    if (!p.iotlbConflictMitigation)
        return p.sliceBytes;
    // The conflict-mitigation gap shifts each slice's IOTLB set
    // index by entries/8 sets — one eighth of the direct-mapped
    // IOTLB per accelerator. At the default 2 MB pages this is
    // exactly the paper's 128 MB gap (512/8 * 2 MB); it scales with
    // the configured page size so mitigation also works in 4 KB
    // mode.
    return p.sliceBytes +
           (p.iotlbEntries / 8) * _platform.iommu().pageBytes();
}

VirtualAccel &
OptimusHv::createVirtualAccel(guest::Process &proc,
                              std::uint32_t slot_idx)
{
    OPTIMUS_ASSERT(slot_idx < _slots.size(), "bad physical slot");
    Slot &slot = _slots[slot_idx];
    if (!optimusMode()) {
        OPTIMUS_ASSERT(slot.vaccels.empty(),
                       "pass-through cannot oversubscribe");
    }

    auto v = std::make_unique<VirtualAccel>();
    v->_id = _nextVaccelId++;
    v->_slot = slot_idx;
    v->_proc = &proc;
    for (std::uint32_t i = 0; i < _vms.size(); ++i) {
        if (_vms[i].get() == &proc.vm())
            v->_vmId = static_cast<std::uint16_t>(i);
    }
    const auto &procs = proc.vm().processes();
    for (std::uint32_t i = 0; i < procs.size(); ++i) {
        if (procs[i].get() == &proc)
            v->_procId = static_cast<std::uint16_t>(i);
    }
    // Scheduler telemetry lives under the owning VM/process, so the
    // tree itself shows who held which slot for how long.
    v->_sched = std::make_unique<VirtualAccel::SchedStats>(
        &_platform.telemetry()
             .node(proc.vm().name() + "." + proc.name())
             .child(sim::strprintf("vaccel%u", v->_id)));
    // Every vaccel reserves a DMA window to allocate from. Its IOVAs
    // are its page-table slice under OPTIMUS; pass-through with vIOMMU
    // lets the device see guest virtual addresses (identity IOVA).
    v->_windowBytes = _platform.params().sliceBytes;
    v->_windowBase = proc.mmapNoReserve(v->_windowBytes);
    v->_sliceIovaBase =
        optimusMode()
            ? sliceStride() * (static_cast<std::uint64_t>(v->_id) + 1)
            : v->_windowBase.value();

    VirtualAccel *raw = v.get();
    raw->_watchdog.bind(eventq(), [this, raw]() { watchdogCheck(*raw); });
    _byId.push_back(raw);
    slot.vaccels.push_back(std::move(v));

    if (slot.state == SlotState::kVacant) {
        setState(slot, SlotState::kHeld);
        slot.scheduled = raw;
        slot.scheduledAt = eventq().now();
        scheduleVaccel(*raw, []() {});
    }
    if (slot.vaccels.size() == 2)
        armSliceTimer(slot_idx);
    return *raw;
}

// --------------------------------------------------------- MMIO plumbing

std::uint64_t
OptimusHv::accelRegOffset(std::uint32_t slot, std::uint64_t r) const
{
    return optimusMode() ? fpga::accelMmioBase(slot) + r : r;
}

void
OptimusHv::deviceMmio(bool is_write, std::uint64_t offset,
                      std::uint64_t value,
                      std::function<void(std::uint64_t)> done)
{
    ccip::MmioOp op;
    op.isWrite = is_write;
    op.offset = offset;
    op.value = value;
    op.onComplete = std::move(done);
    _platform.shell().mmioFromHost(std::move(op));
}

void
OptimusHv::deviceMmioSeq(
    std::vector<std::pair<std::uint64_t, std::uint64_t>> writes,
    std::function<void()> done)
{
    if (writes.empty()) {
        done();
        return;
    }
    auto rest = std::make_shared<
        std::vector<std::pair<std::uint64_t, std::uint64_t>>>(
        writes.begin() + 1, writes.end());
    deviceMmio(true, writes[0].first, writes[0].second,
               [this, rest, done = std::move(done)](
                   std::uint64_t) mutable {
                   deviceMmioSeq(std::move(*rest), std::move(done));
               });
}

void
OptimusHv::mmioWrite(VirtualAccel &v, std::uint64_t r,
                     std::uint64_t value, std::function<void()> done)
{
    const auto &p = _platform.params();
    sim::Tick cost =
        optimusMode() ? p.trapEmulateCost : p.mmioNative;
    if (optimusMode())
        ++_traps;
    if (!done)
        done = []() {};

    ++v._cmdsInFlight;
    eventq().scheduleIn(cost, [this, &v, r, value,
                               done = std::move(done)]() mutable {
        trapWrite(v, r, value, std::move(done));
        --v._cmdsInFlight;
        runHeldExport(v);
    });
}

void
OptimusHv::trapWrite(VirtualAccel &v, std::uint64_t r,
                     std::uint64_t value, std::function<void()> done)
{
    const bool sched = isScheduled(v);
    auto forward = [this, &v, r, done](std::uint64_t val) {
        deviceMmio(true, accelRegOffset(v._slot, r), val,
                   [done](std::uint64_t) { done(); });
    };

    if (r == reg::kCtrl) {
        std::uint64_t bits = value;
        // PREEMPT/RESUME are privileged control-register
        // operations; guests may not issue them directly.
        bits &= ~(ctrl::kPreempt | ctrl::kResume);
        if (bits & ctrl::kStart) {
            v._ctx.visibleStatus = Status::kRunning;
            v._ctx.cachedResult = 0;
            v._ctx.cachedProgress = 0;
            v._resultFromCtx = false;
            v._ctx.savedContext = false;
            // A fresh START acknowledges and clears any earlier
            // fault; a quarantined vaccel becomes eligible again.
            v._ctx.errStatus = 0;
            v._ctx.quarantined = false;
            if (!sched) {
                v._ctx.pendingStart = true;
                wake(v);
                done();
                return;
            }
            armWatchdog(v);
        }
        if (bits & ctrl::kSoftReset) {
            v._ctx.visibleStatus = Status::kIdle;
            v._ctx.pendingStart = false;
            v._ctx.savedContext = false;
            v._ctx.errStatus = 0;
            v._ctx.quarantined = false;
            if (!sched) {
                done();
                return;
            }
        }
        if (bits == 0) {
            done();
            return;
        }
        forward(bits);
        return;
    }
    // Cached registers reach the device only while v holds it;
    // scheduleVaccel() replays them otherwise.
    if (r == reg::kStateBuf) {
        v._ctx.stateBufGva = value;
    } else if (const auto idx = reg::appIndex(r)) {
        v._ctx.regCache[*idx] = value;
        if (std::find(v._ctx.touchedRegs.begin(),
                      v._ctx.touchedRegs.end(),
                      *idx) == v._ctx.touchedRegs.end()) {
            v._ctx.touchedRegs.push_back(*idx);
        }
    } else {
        done(); // read-only or unknown register: ignored
        return;
    }
    if (sched)
        forward(value);
    else
        done();
}

void
OptimusHv::mmioRead(VirtualAccel &v, std::uint64_t r,
                    std::function<void(std::uint64_t)> done)
{
    const auto &p = _platform.params();
    sim::Tick cost =
        optimusMode() ? p.trapEmulateCost : p.mmioNative;
    if (optimusMode())
        ++_traps;

    eventq().scheduleIn(cost, [this, &v, r,
                               done = std::move(done)]() mutable {
        const bool sched = isScheduled(v);

        if (r == reg::kStatus) {
            // The hypervisor hides the physical accelerator's
            // status (it may be running someone else's job).
            done(static_cast<std::uint64_t>(v._ctx.visibleStatus));
            return;
        }
        if (r == reg::kErrStatus) {
            // Hypervisor-owned: each tenant observes only its own
            // faults, never the physical device's (or a co-tenant's).
            done(v._ctx.errStatus);
            return;
        }
        if ((r == reg::kResult || r == reg::kProgress) &&
            resultFromContext(v)) {
            done(r == reg::kResult ? v._ctx.cachedResult
                                   : v._ctx.cachedProgress);
            return;
        }
        if (const auto idx = reg::appIndex(r)) {
            done(v._ctx.regCache[*idx]);
            return;
        }
        if (!sched) {
            // STATE_SIZE and friends: consult the device model
            // directly (conservative; documented approximation).
            done(_platform.accel(v._slot).mmioRead(r));
            return;
        }
        deviceMmio(false, accelRegOffset(v._slot, r), 0,
                   std::move(done));
    });
}

// --------------------------------------------------------- shadow paging

void
OptimusHv::registerDmaPage(VirtualAccel &v, mem::Gva page_base,
                           std::function<void(bool)> done)
{
    ++_hypercalls;
    const auto &p = _platform.params();

    eventq().scheduleIn(p.hypercallCost, [this, &v, page_base,
                                          done = std::move(
                                              done)]() mutable {
        // A page must be 2 MB aligned, backed, and (window check)
        // inside this virtual accelerator's DMA slice.
        if (page_base.pageOffset(mem::kPage2M) != 0 ||
            (optimusMode() &&
             (page_base < v._windowBase ||
              (page_base - v._windowBase) + mem::kPage2M >
                  v._windowBytes)) ||
            !v._proc->isBacked(page_base)) {
            ++_rejectedPages;
            done(false);
            return;
        }

        mem::Gpa gpa = v._proc->toGpa(page_base);
        mem::Hpa hpa = v._proc->vm().toHpa(gpa);

        std::uint64_t offset =
            v._sliceIovaBase - v._windowBase.value(); // mod 2^64
        mem::Iova iova(page_base.value() + offset);

        // Frame pinning and the IO page-table install touch
        // host-side state, so the work crosses the package (one
        // interconnect latency each way) and the acknowledgement
        // returns on the hypervisor side.
        const sim::Tick upi = _platform.params().upiLatency;
        eventq().scheduleIn(upi, [this, hpa, iova, upi,
                                  done = std::move(done)]() mutable {
            _platform.frames().pin(hpa);
            iommu::Iommu &iommu = _platform.iommu();
            if (iommu.pageBytes() == mem::kPage2M) {
                iommu.pageTable().map(iova, hpa);
            } else {
                // 4 KB IOPT mode: one entry per small page.
                for (std::uint64_t o = 0; o < mem::kPage2M;
                     o += mem::kPage4K) {
                    iommu.pageTable().map(iova + o, hpa + o);
                }
            }
            eventq().scheduleIn(upi, [done = std::move(done)]() mutable {
                done(true);
            });
        });
    });
}

// --------------------------------------- doorbell-free command rings

void
OptimusHv::setupRing(VirtualAccel &v, mem::Gva base,
                     std::uint32_t entries,
                     std::function<void()> done)
{
    OPTIMUS_ASSERT(entries > 0, "ring needs at least one entry");
    OPTIMUS_ASSERT(base >= v._windowBase &&
                       (base - v._windowBase) +
                               ring::ringBytes(entries) <=
                           v._windowBytes,
                   "ring outside the tenant's DMA window");
    ++_hypercalls;
    if (!done)
        done = []() {};
    eventq().scheduleIn(
        _platform.params().hypercallCost,
        [this, &v, base, entries,
         done = std::move(done)]() mutable {
            v._ctx.ring = ring::DeviceConfig{base, entries, {}};
            if (isScheduled(v))
                _platform.accel(v._slot).armRing(v._ctx.ring);
            done();
        });
}

void
OptimusHv::ringPublish(VirtualAccel &v, std::uint64_t prod_seq,
                       std::function<void()> done)
{
    OPTIMUS_ASSERT(v.ringEnabled(), "ringPublish without setupRing");
    if (!done)
        done = []() {};
    // The publish itself is two plain stores in the guest's own
    // memory — no trap. What is priced here is the propagation of
    // the sequence-word store into the line the device polls.
    ++v._cmdsInFlight;
    eventq().scheduleIn(
        _platform.params().ringPublishCost,
        [this, &v, prod_seq, done = std::move(done)]() mutable {
            ++_ringSubmits;
            ++_ringKicks;
            ++v._sched->ringSubmits;
            emitTrace(sim::TraceKind::kRingSubmit, &v, v._id, prod_seq);
            std::uint64_t &prod = v._ctx.ring.state.prodSeq;
            prod = std::max(prod, prod_seq);
            // Like START, new work acknowledges an earlier fault and
            // makes a quarantined tenant eligible again — but unlike
            // START it preserves a saved context: publishing behind a
            // preempted job just queues more entries.
            v._ctx.visibleStatus = Status::kRunning;
            v._ctx.errStatus = 0;
            v._ctx.quarantined = false;
            v._resultFromCtx = false;
            if (isScheduled(v)) {
                _platform.accel(v._slot).ringNotify(prod);
                armWatchdog(v);
            } else {
                wake(v);
            }
            done();
            --v._cmdsInFlight;
            runHeldExport(v);
        });
}

void
OptimusHv::emitTrace(sim::TraceKind kind, const VirtualAccel *v,
                     std::uint64_t addr, std::uint64_t arg,
                     sim::Tick start)
{
    sim::TraceBus &bus = _platform.trace();
    if (!bus.wants(kind))
        return;
    sim::TraceRecord r;
    r.kind = kind;
    r.comp = _comp;
    r.start = start;
    r.addr = addr;
    r.arg = arg;
    if (v) {
        r.vm = v->_vmId;
        r.proc = v->_procId;
    }
    bus.emit(r);
}

void
OptimusHv::noteRingCompletes(VirtualAccel &v, std::uint64_t from,
                             std::uint64_t to)
{
    _ringCompletes += to - from;
    v._sched->ringCompletes += to - from;
    for (std::uint64_t seq = from; seq < to; ++seq)
        emitTrace(sim::TraceKind::kRingComplete, &v, v._id, seq);
}

void
OptimusHv::syncRingFromDevice(VirtualAccel &v,
                              const accel::Accelerator &a)
{
    if (!v.ringEnabled() || !a.ringArmed())
        return;
    const ring::DeviceState &st = a.ringState();
    ring::DeviceState &m = v._ctx.ring.state;
    // Cursors only ever advance; a stale device view (e.g. a
    // freshly-armed placeholder next to imported mirrors) must not
    // roll them back.
    if (st.compSeq > m.compSeq) {
        noteRingCompletes(v, m.compSeq, st.compSeq);
        m.compSeq = st.compSeq;
    }
    m.nextSeq = std::max(m.nextSeq, st.nextSeq);
    m.prodSeq = std::max(m.prodSeq, st.prodSeq);
    if (st.jobActive) {
        m.jobActive = true;
        m.jobSeq = st.jobSeq;
    } else if (st.nextSeq >= m.nextSeq && st.compSeq >= m.compSeq) {
        // Only a device whose cursors are current can attest that no
        // job is in flight.
        m.jobActive = false;
    }
}

void
OptimusHv::postRingErrors(VirtualAccel &v)
{
    if (!v.ringEnabled())
        return;
    // Pick up completions the device posted since the last doorbell
    // so they are not overwritten as errors.
    if (_slots[v._slot].scheduled == &v)
        syncRingFromDevice(v, _platform.accel(v._slot));
    ring::DeviceState &m = v._ctx.ring.state;
    const std::uint64_t from = m.compSeq;
    const std::uint64_t to = m.prodSeq;
    m.jobActive = false;
    if (from >= to)
        return;
    m.compSeq = to;
    m.nextSeq = to;
    noteRingCompletes(v, from, to);
    const std::uint64_t err = v._ctx.errStatus;
    const std::uint64_t base = v._ctx.ring.base.value();
    const std::uint32_t entries = v._ctx.ring.entries;
    const sim::Tick at = eventq().now();
    VirtualAccel *vp = &v;
    guest::Process *proc = v._proc;
    // The entry slots and cursor words live in guest memory, across
    // the package: write the entries first, then publish the cursors,
    // exactly as the device poller would have, and tell the tenant
    // once they have landed.
    const sim::Tick upi = _platform.params().upiLatency;
    eventq().scheduleIn(upi, [this, vp, proc, base, entries, from, to,
                              err, at]() {
        for (std::uint64_t seq = from; seq < to; ++seq) {
            ring::CompleteEntry ce{};
            ce.seq = seq;
            ce.status = static_cast<std::uint64_t>(Status::kError);
            ce.err = err;
            ce.tick = at;
            proc->writeValue(
                mem::Gva(base + ring::completeSlotOff(entries, seq)),
                ce);
        }
        proc->writeValue(
            mem::Gva(base +
                     ring::headerOff(ring::kCompleteProdLine)),
            to);
        proc->writeValue(
            mem::Gva(base + ring::headerOff(ring::kSubmitConsLine)),
            to);
        wakeGuest(*vp);
        if (vp->_completion)
            vp->_completion(Status::kError);
    });
}

// ------------------------------------------------------------ scheduling

void
OptimusHv::vcuSeq(
    std::vector<std::pair<std::uint64_t, std::uint64_t>> writes,
    std::function<void()> done)
{
    _vcuQueue.emplace_back(std::move(writes), std::move(done));
    drainVcuQueue();
}

void
OptimusHv::drainVcuQueue()
{
    if (_vcuBusy || _vcuQueue.empty())
        return;
    _vcuBusy = true;
    auto [writes, done] = std::move(_vcuQueue.front());
    _vcuQueue.pop_front();
    deviceMmioSeq(std::move(writes),
                  [this, done = std::move(done)]() {
                      _vcuBusy = false;
                      done();
                      drainVcuQueue();
                  });
}

void
OptimusHv::programOffsetEntry(VirtualAccel &v,
                              std::function<void()> done)
{
    if (!optimusMode()) {
        done();
        return;
    }
    namespace vr = fpga::vcu_reg;
    const std::uint64_t base = fpga::kVcuMmioBase;
    std::uint64_t offset =
        v._sliceIovaBase - v._windowBase.value(); // mod 2^64
    vcuSeq(
        {{base + vr::kOffsetIndex, v._slot},
         {base + vr::kOffsetGvaBase, v._windowBase.value()},
         {base + vr::kOffsetValue, offset},
         {base + vr::kOffsetWindow, v._windowBytes},
         {base + vr::kOffsetCommit, 1}},
        std::move(done));
}

void
OptimusHv::setState(Slot &slot, SlotState to)
{
    // The legal source states of each target.
    using S = SlotState;
    const S from = slot.state;
    bool legal = false;
    switch (to) {
      case S::kHeld: // creation on a vacant slot; attach() completes
        legal = from == S::kVacant || from == S::kAttaching;
        break;
      case S::kCeding:    // cede()
      case S::kResetting: // resetHolder()
        legal = from == S::kHeld;
        break;
      case S::kAttaching: // a switch proceeds; a migration onto a
                          // vacant slot; an import onto an idle
                          // placeholder
        legal = from == S::kCeding || from == S::kVacant ||
                from == S::kHeld;
        break;
      case S::kVacant: // vacate()
        legal = from == S::kCeding || from == S::kResetting;
        break;
    }
    OPTIMUS_ASSERT(legal, "illegal slot transition %d -> %d",
                   static_cast<int>(from), static_cast<int>(to));
    slot.state = to;
    if (slot.midSwitch())
        slot.sliceTimer.cancel();
}

void
OptimusHv::scheduleVaccel(VirtualAccel &v, std::function<void()> done)
{
    ++v._sched->slices;
    // Attribution: while v holds the slot, every DMA its auditor
    // forwards is stamped with v's VM/process identity.
    if (fpga::HardwareMonitor *m = _platform.monitor())
        m->auditor(v._slot).setOwner(v._vmId, v._procId);

    // 1. Reset the physical accelerator (isolation: clear the
    //    previous tenant's state), via the VCU reset table.
    auto after_reset = [this, &v, done = std::move(done)]() mutable {
        // 2. Install v's offset-table entry (page table slicing).
        programOffsetEntry(v, [this, &v,
                               done = std::move(done)]() mutable {
            // 3. Synchronize cached application registers and the
            //    state buffer pointer.
            std::vector<std::pair<std::uint64_t, std::uint64_t>> w;
            for (std::uint32_t idx : v._ctx.touchedRegs) {
                w.emplace_back(
                    accelRegOffset(v._slot, reg::appReg(idx)),
                    v._ctx.regCache[idx]);
            }
            if (v._ctx.stateBufGva != 0) {
                w.emplace_back(
                    accelRegOffset(v._slot, reg::kStateBuf),
                    v._ctx.stateBufGva);
            }
            // 4. Kick the job: resume a saved context, or start a
            //    job the guest requested while descheduled.
            if (v._ctx.savedContext) {
                w.emplace_back(accelRegOffset(v._slot, reg::kCtrl),
                               ctrl::kResume);
                v._ctx.savedContext = false;
            } else if (v._ctx.pendingStart) {
                w.emplace_back(accelRegOffset(v._slot, reg::kCtrl),
                               ctrl::kStart);
                v._ctx.pendingStart = false;
            }
            // 5. Ring tenants: re-arm the device poller with the
            //    mirrored cursors — only after the register replay
            //    (and any RESUME) landed, or the poller could fetch a
            //    command into a half-programmed device.
            auto arm = [this, &v,
                        done = std::move(done)]() mutable {
                if (v.ringEnabled())
                    _platform.accel(v._slot).armRing(v._ctx.ring);
                done();
            };
            deviceMmioSeq(std::move(w), std::move(arm));
        });
    };

    if (optimusMode())
        vcuReset(v._slot, std::move(after_reset));
    else
        after_reset();
}

sim::Tick
OptimusHv::sliceFor(const Slot &slot, const VirtualAccel &v) const
{
    sim::Tick base = slot.baseSlice != 0
                         ? slot.baseSlice
                         : _platform.params().timeSlice;
    if (slot.policy == SchedPolicy::kWeighted) {
        return static_cast<sim::Tick>(static_cast<double>(base) *
                                      v._weight);
    }
    return base;
}

void
OptimusHv::setPolicy(std::uint32_t slot_idx, SchedPolicy policy,
                     sim::Tick base_slice)
{
    Slot &slot = _slots[slot_idx];
    slot.policy = policy;
    slot.baseSlice = base_slice;
    armSliceTimer(slot_idx);
}

void
OptimusHv::attach(VirtualAccel &v, std::function<void()> done)
{
    scheduleVaccel(v, [this, &v, done = std::move(done)]() {
        Slot &s = _slots[v._slot];
        setState(s, SlotState::kHeld);
        s.scheduled = &v;
        s.scheduledAt = eventq().now();
        armSliceTimer(v._slot);
        // The tenant only now gained the hardware: the no-progress
        // deadline restarts from this instant, invalidating any check
        // armed while the switch (38us of software cost plus the VCU
        // sequence) was still in flight — that one would expire
        // before the device had a chance to move.
        v._watchdog.cancel();
        armWatchdog(v);
        done();
        runHeldExports(v._slot);
    });
}

void
OptimusHv::wake(VirtualAccel &v)
{
    // A vacant slot (e.g. after a quarantine reset emptied it) is
    // claimed now: its dormant slice timer would never fire.
    if (_slots[v._slot].state == SlotState::kVacant)
        performSwitch(v._slot, &v);
    else
        armSliceTimer(v._slot);
    armWatchdog(v);
}

void
OptimusHv::armSliceTimer(std::uint32_t slot_idx)
{
    Slot &slot = _slots[slot_idx];
    slot.sliceTimer.cancel();
    if (slot.vaccels.size() < 2 || slot.scheduled == nullptr)
        return;
    slot.sliceTimer.scheduleIn(sliceFor(slot, *slot.scheduled));
}

namespace {
bool
eligible(const VirtualAccel *v)
{
    return v->visibleStatus() == Status::kRunning;
}
} // namespace

VirtualAccel *
OptimusHv::pickNext(Slot &slot)
{
    const auto n = static_cast<std::uint32_t>(slot.vaccels.size());
    if (n == 0)
        return nullptr;

    if (slot.policy == SchedPolicy::kPriority) {
        VirtualAccel *best = nullptr;
        for (std::uint32_t i = 0; i < n; ++i) {
            VirtualAccel *v =
                slot.vaccels[(slot.rrNext + i) % n].get();
            if (!eligible(v))
                continue;
            if (!best || v->_priority > best->_priority)
                best = v;
        }
        if (best) {
            slot.rrNext = (slot.rrNext + 1) % n;
        }
        return best;
    }

    // Round-robin (optionally weighted): next eligible in order.
    for (std::uint32_t i = 0; i < n; ++i) {
        std::uint32_t idx = (slot.rrNext + i) % n;
        VirtualAccel *v = slot.vaccels[idx].get();
        if (eligible(v)) {
            slot.rrNext = (idx + 1) % n;
            return v;
        }
    }
    return nullptr;
}

void
OptimusHv::sliceExpired(std::uint32_t slot_idx)
{
    Slot &slot = _slots[slot_idx];
    if (slot.midSwitch())
        return;

    VirtualAccel *next = pickNext(slot);
    if (next == nullptr || next == slot.scheduled) {
        // Re-arm only if someone else could become schedulable by
        // pure time passage; otherwise the timer goes dormant and a
        // postponed START re-arms it.
        bool other_eligible = false;
        for (const auto &v : slot.vaccels) {
            if (v.get() != slot.scheduled && eligible(v.get()))
                other_eligible = true;
        }
        if (other_eligible)
            armSliceTimer(slot_idx);
        return;
    }
    performSwitch(slot_idx, next);
}

void
OptimusHv::performSwitch(std::uint32_t slot_idx, VirtualAccel *to)
{
    OPTIMUS_ASSERT(optimusMode(),
                   "temporal multiplexing requires OPTIMUS mode");
    auto proceed = [this, slot_idx, to]() {
        setState(_slots[slot_idx], SlotState::kAttaching);
        ++_ctxSwitches;
        // Software cost: trap handling, table updates, register
        // synchronization bookkeeping.
        eventq().scheduleIn(_platform.params().contextSwitchSwCost,
                            [this, to]() { attach(*to, []() {}); });
    };

    Slot &slot = _slots[slot_idx];
    if (slot.scheduled != nullptr) {
        // Saved or force-reset, the holder gives way.
        cede(slot_idx, *slot.scheduled, true,
             [proceed](bool) { proceed(); });
        return;
    }
    proceed();
}

void
OptimusHv::cede(std::uint32_t slot_idx, VirtualAccel &v,
                bool ring_errors, std::function<void(bool)> then)
{
    Slot &slot = _slots[slot_idx];
    setState(slot, SlotState::kCeding);
    notePreempted(slot_idx, v);

    slot.onCeded = [this, slot_idx, &v, ring_errors,
                    then = std::move(then)](bool saved) {
        VaccelContext &c = v._ctx;
        if (saved) {
            // The hardware registers still hold v's values; cache
            // the guest-visible ones before they are clobbered.
            c.savedContext = true;
            c.cachedResult = _platform.accel(slot_idx).result();
            c.cachedProgress = _platform.accel(slot_idx).progress();
            then(true);
            return;
        }
        ++_forcedResets;
        noteError(v, accel::errst::kForcedReset);
        c.visibleStatus = Status::kError;
        c.savedContext = false;
        wakeGuest(v);
        if (ring_errors)
            postRingErrors(v);
        vcuReset(slot_idx, [then]() { then(false); });
    };
    if (v._ctx.stateBufGva == 0 &&
        v._ctx.visibleStatus == Status::kRunning) {
        // The accelerator does not implement the preemption
        // interface (no state buffer): forcibly reset it.
        settleCede(slot_idx, false);
        return;
    }

    // Ask the accelerator to save its context; the SAVED doorbell
    // (onDoorbell) or else the timeout takes the outcome.
    slot.preemptTimer.scheduleIn(_platform.params().preemptTimeout);
    deviceMmio(true, accelRegOffset(slot_idx, reg::kCtrl),
               ctrl::kPreempt, nullptr);
}

void
OptimusHv::settleCede(std::uint32_t slot_idx, bool saved)
{
    Slot &slot = _slots[slot_idx];
    slot.preemptTimer.cancel();
    auto outcome = std::move(slot.onCeded);
    slot.onCeded = nullptr;
    outcome(saved);
}

void
OptimusHv::vacate(std::uint32_t slot_idx)
{
    Slot &slot = _slots[slot_idx];
    setState(slot, SlotState::kVacant);
    slot.scheduled = nullptr;
    // Co-tenants keep their shares: the next eligible vaccel takes the
    // slot through the full reattach path (VCU reset, offset entry,
    // register replay).
    if (VirtualAccel *next = pickNext(slot))
        performSwitch(slot_idx, next);
    else
        runHeldExports(slot_idx);
}

void
OptimusHv::onDoorbell(std::uint32_t slot_idx, accel::Accelerator &a)
{
    Slot &slot = _slots[slot_idx];
    VirtualAccel *v = slot.scheduled;
    if (v == nullptr)
        return;

    ++v->_sched->doorbells;
    wakeGuest(*v);

    Status st = a.status();
    if (st == Status::kSaved) {
        // The poller is quiescent now: refresh the ring mirrors so
        // the saved context re-arms exactly where the device stopped.
        syncRingFromDevice(*v, a);
        if (slot.onCeded)
            settleCede(slot_idx, true);
        return;
    }
    if (st == Status::kDone || st == Status::kError) {
        if (st == Status::kError)
            noteError(*v, accel::errst::kDeviceError);
        if (v->ringEnabled()) {
            syncRingFromDevice(*v, a);
            v->_ctx.cachedResult = a.result();
            v->_ctx.cachedProgress = a.progress();
            // A ring tenant's handler runs where its entries land
            // (onRingPost, postRingErrors), not at these doorbells.
            if (st == Status::kError) {
                // Per-job results ride the ring; the doorbell only
                // announces the fault. Everything submitted but not
                // completed gets an error completion.
                v->_ctx.visibleStatus = Status::kError;
                postRingErrors(*v);
                return;
            }
            // Drained doorbell: every entry the device knew of is
            // complete. A publish kick that raced the drain just
            // re-notifies the poller instead.
            const ring::DeviceState &m = v->_ctx.ring.state;
            if (m.prodSeq > m.nextSeq) {
                a.ringNotify(m.prodSeq);
                return;
            }
            v->_ctx.visibleStatus = Status::kDone;
            return;
        }
        v->_ctx.visibleStatus = st;
        v->_ctx.cachedResult = a.result();
        v->_ctx.cachedProgress = a.progress();
        if (v->_completion)
            v->_completion(st);
    }
}

void
OptimusHv::onRingPost(std::uint32_t slot_idx, accel::Accelerator &a)
{
    // The device posts only into the ring it was armed with, which is
    // the holder's until its cede has drained the poller.
    VirtualAccel *v = _slots[slot_idx].scheduled;
    if (v == nullptr)
        return;
    wakeGuest(*v);
    if (v->_completion)
        v->_completion(a.status());
}

bool
OptimusHv::release(VirtualAccel &v, bool ring_errors,
                   std::function<void(bool)> then)
{
    const std::uint32_t slot_idx = v._slot;
    Slot &slot = _slots[slot_idx];
    const bool running = v._ctx.visibleStatus == Status::kRunning;
    if (slot.midSwitch() ||
        (slot.scheduled == &v && running && v._ctx.stateBufGva == 0))
        return false;
    if (slot.scheduled != &v) {
        // Descheduled: the cached registers and saved context are
        // already complete.
        then(true);
    } else if (running) {
        cede(slot_idx, v, ring_errors,
             [this, slot_idx, then = std::move(then)](bool saved) {
                 then(saved);
                 vacate(slot_idx);
             });
    } else {
        // Nothing live on the device (idle or finished, with the
        // result already cached by the doorbell): no PREEMPT.
        resetHolder(slot_idx);
        then(true);
    }
    return true;
}

void
OptimusHv::migrate(VirtualAccel &v, std::uint32_t dst_idx,
                   std::function<void(bool)> done)
{
    OPTIMUS_ASSERT(dst_idx < _slots.size(), "bad destination slot");
    const std::uint32_t src_idx = v._slot;
    // Both slots must host the same accelerator configuration:
    // migration moves state, not bitstreams.
    const auto &apps = _platform.config().apps;
    if (!optimusMode() || dst_idx == src_idx ||
        apps[src_idx] != apps[dst_idx] || _slots[dst_idx].midSwitch()) {
        done(false);
        return;
    }
    // Saved, reset or never scheduled, v moves with its cached
    // registers and saved context (if any). Force-reset, it stays,
    // errored, on the source slot.
    auto move = [this, &v, src_idx, dst_idx, done](bool saved) {
        if (!saved) {
            done(false);
            return;
        }
        Slot &src = _slots[src_idx];
        auto it = std::find_if(
            src.vaccels.begin(), src.vaccels.end(),
            [&v](const auto &p) { return p.get() == &v; });
        OPTIMUS_ASSERT(it != src.vaccels.end(),
                       "migrating an unknown virtual accelerator");
        Slot &dst = _slots[dst_idx];
        dst.vaccels.push_back(std::move(*it));
        src.vaccels.erase(it);
        if (!src.vaccels.empty())
            src.rrNext %= static_cast<std::uint32_t>(
                src.vaccels.size());
        v._slot = dst_idx;
        ++_migrations;

        // Only a running job takes the hardware: a vacant destination
        // now, an occupied one at its next slice.
        if (v._ctx.visibleStatus != Status::kRunning) {
            done(true);
        } else if (dst.state == SlotState::kVacant) {
            setState(dst, SlotState::kAttaching);
            attach(v, [done]() { done(true); });
        } else {
            armSliceTimer(dst_idx);
            done(true);
        }
    };
    if (!release(v, true, std::move(move)))
        done(false); // a switch is in flight, or v cannot cede
}

void
OptimusHv::exportContext(
    VirtualAccel &v, std::function<void(bool, VaccelContext)> done)
{
    OPTIMUS_ASSERT(!v._heldExport, "second export of one vaccel");
    if (!optimusMode()) {
        done(false, {});
        return;
    }
    v._heldExport = std::move(done);
    runHeldExport(v);
}

void
OptimusHv::runHeldExport(VirtualAccel &v)
{
    // A command in flight would land on the neutralized vaccel and
    // strand its job; a switch in flight owns the slot.
    if (!v._heldExport || v._cmdsInFlight != 0 ||
        _slots[v._slot].midSwitch())
        return;
    auto done = std::move(v._heldExport);
    v._heldExport = nullptr;
    // Snapshot the hypervisor-side state, then neutralize the source
    // vaccel: the job now lives in the context, so the local
    // scheduler must never consider it eligible again. A forced reset
    // exports the errored context anyway: the destination's service
    // layer sees kError with the kForcedReset bit and retries the
    // request, and importContext() posts the ring error completions.
    auto capture = [&v, done](bool) {
        VaccelContext ctx = v._ctx;
        v._ctx.pendingStart = false;
        v._ctx.savedContext = false;
        v._ctx.visibleStatus = Status::kIdle;
        v._watchdog.cancel();
        done(true, std::move(ctx));
    };
    if (!release(v, false, std::move(capture)))
        done(false, {}); // running without a state buffer
}

void
OptimusHv::runHeldExports(std::uint32_t slot_idx)
{
    for (const auto &v : _slots[slot_idx].vaccels)
        runHeldExport(*v);
}

void
OptimusHv::importContext(VirtualAccel &v, const VaccelContext &ctx)
{
    v._ctx = ctx;
    // A finished (or idle) job's RESULT and PROGRESS live only in the
    // context; a running one is reprogrammed onto the device below.
    v._resultFromCtx = ctx.visibleStatus != Status::kRunning;
    if (v.ringEnabled()) {
        // A kError context with submitted-but-uncompleted entries
        // came from a forced reset that raced the export — the
        // source could not post the error completions, so deliver
        // them here, into the already-imported window image.
        if (ctx.visibleStatus == Status::kError)
            postRingErrors(v);
        // Re-arm an idle placeholder's poller with the imported
        // cursors (tenant setup armed it with fresh ones).
        if (isScheduled(v))
            _platform.accel(v._slot).armRing(v._ctx.ring);
    }
    if (ctx.visibleStatus != Status::kRunning || !optimusMode())
        return;

    // Mirror a postponed START. One extra case is specific to import:
    // v may itself be holding the slot as an idle placeholder
    // (destination bindings are created eagerly); switching to it
    // would idle-save the device and clobber the imported context, so
    // reprogram the device from the context instead.
    if (isScheduled(v)) {
        setState(_slots[v._slot], SlotState::kAttaching);
        ++_ctxSwitches;
        attach(v, []() {});
        return;
    }
    wake(v);
}

void
OptimusHv::notePreempted(std::uint32_t slot_idx, VirtualAccel &v)
{
    Slot &slot = _slots[slot_idx];
    v._sched->occupancyTicks += eventq().now() - slot.scheduledAt;
    ++v._sched->preempts;
    emitTrace(sim::TraceKind::kSchedPreempt, &v, v._id, slot_idx,
              slot.scheduledAt);
}

// -------------------------------------------------- watchdog & recovery

void
OptimusHv::setWatchdog(sim::Tick deadline)
{
    _wdDeadline = deadline;
    if (deadline == 0)
        return;
    for (auto &slot : _slots) {
        for (auto &v : slot.vaccels) {
            if (v->_ctx.visibleStatus == Status::kRunning)
                armWatchdog(*v);
        }
    }
}

void
OptimusHv::armWatchdog(VirtualAccel &v)
{
    if (_wdDeadline == 0 || v._watchdog.armed())
        return;
    v._wdLastProgress = peekProgress(v);
    v._watchdog.scheduleIn(_wdDeadline);
}

void
OptimusHv::watchdogCheck(VirtualAccel &v)
{
    if (_wdDeadline == 0 || v._ctx.visibleStatus != Status::kRunning)
        return; // disabled, or finished or reset: the next START re-arms
    if (isScheduled(v)) {
        // The health probe is an MMIO read of PROGRESS: a device whose
        // MMIO interface wedged answers all-ones, which can never
        // match a live progress counter — the probe fails, the tenant
        // is quarantined even though the datapath may still be moving.
        std::uint64_t p = _platform.accel(v._slot).mmioWedged()
                              ? ~0ULL
                              : peekProgress(v);
        if (p == v._wdLastProgress || p == ~0ULL) {
            quarantine(v);
            return;
        }
    }
    // Progressing, or descheduled by temporal multiplexing (progress
    // legitimately cannot advance): the deadline restarts from here.
    armWatchdog(v);
}

void
OptimusHv::quarantine(VirtualAccel &v)
{
    ++_watchdogFires;
    ++v._sched->watchdogFires;
    noteError(v, accel::errst::kWatchdog);
    v._ctx.visibleStatus = Status::kError;
    v._ctx.quarantined = true;
    wakeGuest(v);
    v._ctx.pendingStart = false;
    v._ctx.savedContext = false;
    // Ring tenants learn of the quarantine through their completion
    // ring: every submitted-but-uncompleted entry reports kError with
    // the kWatchdog bit.
    postRingErrors(v);
    emitTrace(sim::TraceKind::kWatchdogFire, &v, v._id, v._slot);
    if (!v.ringEnabled() && v._completion)
        v._completion(Status::kError);
    resetSlot(v._slot);
}

void
OptimusHv::resetSlot(std::uint32_t slot_idx)
{
    Slot &slot = _slots[slot_idx];
    ++_slotResets;
    emitTrace(sim::TraceKind::kSlotReset, slot.scheduled, slot_idx,
              1ULL << slot_idx);
    if (optimusMode()) {
        resetHolder(slot_idx);
        return;
    }
    // Pass-through has no VCU: reset the device directly. The sole
    // tenant keeps its binding to the slot.
    notePreempted(slot_idx, *slot.scheduled);
    slot.scheduledAt = eventq().now();
    _platform.accel(slot_idx).hardReset();
}

void
OptimusHv::resetHolder(std::uint32_t slot_idx)
{
    Slot &slot = _slots[slot_idx];
    setState(slot, SlotState::kResetting);
    notePreempted(slot_idx, *slot.scheduled);
    vcuReset(slot_idx, [this, slot_idx]() { vacate(slot_idx); });
}

void
OptimusHv::vcuReset(std::uint32_t slot_idx, std::function<void()> done)
{
    deviceMmio(true, fpga::kVcuMmioBase + fpga::vcu_reg::kResetTable,
               1ULL << slot_idx,
               [done = std::move(done)](std::uint64_t) { done(); });
}

void
OptimusHv::noteError(VirtualAccel &v, std::uint64_t bits)
{
    v._ctx.errStatus |= bits;
    ++v._sched->faults;
}

VirtualAccel *
OptimusHv::vaccelForIova(mem::Iova iova)
{
    if (optimusMode()) {
        // Page table slicing: slice k belongs to vaccel id k-1.
        std::uint64_t k = iova.value() / sliceStride();
        if (k == 0 || k > _byId.size())
            return nullptr;
        return _byId[k - 1];
    }
    // Pass-through: identity IOVA, scan the DMA windows.
    for (VirtualAccel *v : _byId) {
        if (iova.value() >= v->_windowBase.value() &&
            iova.value() < v->_windowBase.value() + v->_windowBytes) {
            return v;
        }
    }
    return nullptr;
}

// -------------------------------------------------------- introspection

bool
OptimusHv::isScheduled(const VirtualAccel &v) const
{
    // A slot that is mid-switch no longer belongs to the outgoing
    // tenant even though `scheduled` still names it: a guest MMIO
    // trap landing in that window must take the descheduled path
    // (register cache / pendingStart) or it would race the
    // save/reset/reprogram sequence — a forwarded START would land
    // on a device about to be reset for the incoming tenant, and
    // the job would be lost with the vaccel stuck in kRunning.
    const Slot &slot = _slots[v._slot];
    return slot.scheduled == &v && slot.state == SlotState::kHeld;
}

std::uint64_t
OptimusHv::peekResult(const VirtualAccel &v) const
{
    if (resultFromContext(v))
        return v._ctx.cachedResult;
    return const_cast<Platform &>(_platform).accel(v._slot).result();
}

std::uint64_t
OptimusHv::peekProgress(const VirtualAccel &v) const
{
    if (resultFromContext(v))
        return v._ctx.cachedProgress;
    return const_cast<Platform &>(_platform).accel(v._slot).progress();
}

sim::Tick
OptimusHv::occupancy(const VirtualAccel &v) const
{
    sim::Tick t = v._sched->occupancyTicks.value();
    const Slot &slot = _slots[v._slot];
    if (slot.scheduled == &v)
        t += _platform.eventq().now() - slot.scheduledAt;
    return t;
}

} // namespace optimus::hv

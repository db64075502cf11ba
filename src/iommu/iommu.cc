#include "iommu/iommu.hh"

#include <memory>
#include <utility>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace optimus::iommu {

Iommu::Iommu(sim::EventQueue &eq, const sim::PlatformParams &params,
             sim::Scope scope)
    : _eq(eq),
      _hitLatency(params.iotlbHitCycles *
                  sim::periodFromMhz(params.fpgaIfaceMhz)),
      _walkLatency(params.pageWalkLatency),
      // The soft walker services translations one at a time; queued
      // walks are what turn IOTLB thrash into rapidly growing latency
      // as job counts rise (Fig 5a at 4G/8G working sets).
      _maxConcurrentWalks(2),
      _pageBytes(params.pageBytes),
      _iopt(std::make_unique<mem::IoPageTable>(params.pageBytes)),
      _iotlbScope(scope.sub("iotlb")),
      _iotlb(params.iotlbEntries, params.pageBytes, _iotlbScope),
      _walks(scope.node, "walks", "IO page table walks"),
      _faults(scope.node, "faults", "IO page faults"),
      _coalesced(scope.node, "coalesced_walks",
                 "misses that merged onto an in-flight walk")
{
}

void
Iommu::setPageBytes(std::uint64_t page_bytes)
{
    OPTIMUS_ASSERT(page_bytes == mem::kPage4K ||
                       page_bytes == mem::kPage2M,
                   "unsupported IOMMU page size");
    _pageBytes = page_bytes;
    _iopt = std::make_unique<mem::IoPageTable>(page_bytes);
    // Rebuild on the same scope: the replacement's counters take over
    // the old registrations (Stat move semantics), so the telemetry
    // tree never holds pointers into the destroyed IOTLB.
    _iotlb = Iotlb(_iotlb.entries(), page_bytes, _iotlbScope);
}

void
Iommu::translate(mem::Iova iova, bool is_write, TranslateCallback cb,
                 std::uint16_t vm, std::uint16_t proc)
{
    if (_injectHook && _injectHook->forceFault(iova, is_write, vm, proc)) {
        fault(PendingWalk{iova, is_write, std::move(cb), vm, proc});
        return;
    }

    bool writable = true;
    if (auto hpa = _iotlb.lookup(iova, &writable, vm, proc)) {
        // Fast path: permissions were validated at insert time by the
        // hypervisor; the hardware rechecks writability against the
        // permission bit cached in the IOTLB entry (mappings are
        // add-only, so the cached bit cannot go stale without the
        // whole IOTLB being rebuilt).
        if (is_write && !writable) {
            fault(PendingWalk{iova, is_write, std::move(cb)});
            return;
        }
        _eq.scheduleIn(_hitLatency,
                       [hpa = *hpa, cb = std::move(cb)]() {
                           cb(TranslationResult{false, hpa});
                       });
        return;
    }

    // Coalesce: if a walk for this page is already queued or in
    // flight, attach to it instead of issuing another (as a hardware
    // walker's MSHRs would).
    mem::Iova page = iova.pageBase(_pageBytes);
    auto [it, fresh] = _walkWaiters.try_emplace(page.value());
    it->second.push_back(
        PendingWalk{iova, is_write, std::move(cb), vm, proc});
    if (!fresh) {
        ++_coalesced;
        return;
    }
    if (_activeWalks < _maxConcurrentWalks) {
        startWalk(page);
    } else {
        _walkQueue.push_back(page);
    }
}

void
Iommu::startWalk(mem::Iova page)
{
    ++_activeWalks;
    ++_walks;
    _eq.scheduleIn(_walkLatency,
                   [this, page]() { finishWalk(page); });
}

void
Iommu::finishWalk(mem::Iova page)
{
    --_activeWalks;
    if (!_walkQueue.empty()) {
        mem::Iova next = _walkQueue.front();
        _walkQueue.pop_front();
        startWalk(next);
    }

    auto node = _walkWaiters.extract(page.value());
    OPTIMUS_ASSERT(!node.empty(), "walk completion without waiters");
    auto entry = _iopt->lookup(page);
    if (entry) {
        // Attribute any conflict eviction to the tenant whose miss
        // started this walk (the first waiter).
        const PendingWalk &first = node.mapped().front();
        _iotlb.insert(page, entry->base, entry->perms.writable,
                      first.vm, first.proc);
    }
    // Every waiter is on this page, so each checks its access against
    // the one entry the walk fetched.
    for (PendingWalk &w : node.mapped()) {
        bool allowed = entry && (w.isWrite ? entry->perms.writable
                                           : entry->perms.readable);
        if (!allowed) {
            fault(w);
            continue;
        }
        w.cb(TranslationResult{
            false, entry->base + w.iova.pageOffset(_pageBytes)});
    }
}

void
Iommu::fault(const PendingWalk &w)
{
    ++_faults;
    if (_faultHandler)
        _faultHandler(w.iova, w.isWrite);
    w.cb(TranslationResult{true, mem::Hpa(0)});
}

} // namespace optimus::iommu

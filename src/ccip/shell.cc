#include "ccip/shell.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace optimus::ccip {

Shell::Shell(sim::EventQueue &eq, const sim::PlatformParams &params,
             mem::HostMemory &memory, mem::MemoryController &memctl,
             iommu::Iommu &iommu, sim::Scope scope)
    : _eq(eq),
      _memory(memory),
      _memctl(memctl),
      _iommu(iommu),
      _upi(_eq, "upi", params.upiLatency, params.upiReadGbps,
           params.upiReadGbps * params.writeBwFactor,
           scope.sub("upi")),
      _pcie0(_eq, "pcie0", params.pcieLatency, params.pcieReadGbps,
             params.pcieReadGbps * params.writeBwFactor,
             scope.sub("pcie0")),
      _pcie1(_eq, "pcie1", params.pcieLatency, params.pcieReadGbps,
             params.pcieReadGbps * params.writeBwFactor,
             scope.sub("pcie1")),
      _selector(_upi, _pcie0, _pcie1, scope.sub("selector")),
      _returnLatency(std::min(params.upiLatency, params.pcieLatency)),
      _mmioLinkLatency(params.pcieLatency),
      _dmaMaxRetries(params.dmaMaxRetries),
      _dmaRetryBackoff(params.dmaRetryBackoff),
      _trace(scope.bus),
      _comp(sim::traceComponent(scope, "shell")),
      _dmaReads(scope.node, "dma_reads", "DMA reads processed"),
      _dmaWrites(scope.node, "dma_writes", "DMA writes processed"),
      _dmaFaults(scope.node, "dma_faults",
                 "DMAs rejected by IO page fault"),
      _dmaRetries(scope.node, "dma_retries",
                  "dropped responses re-issued"),
      _dmaDropped(scope.node, "dma_dropped",
                  "responses dropped by fault injection"),
      _hostRequests(scope.sub("bridge").node, "requests",
                    "DMAs serviced host-side"),
      _hostFaults(scope.sub("bridge").node, "faults",
                  "DMAs bounced by an IOMMU translation fault")
{
}

void
Shell::fromAfu(DmaTxnPtr txn)
{
    (txn->isWrite ? _dmaWrites : _dmaReads) += 1;
    issue(std::move(txn));
}

void
Shell::issue(DmaTxnPtr txn)
{
    // The txn travels by move through the whole per-DMA closure chain
    // (front, host side, front) so one DMA costs one shared_ptr
    // reference, not one per hop.
    Link &link = _selector.select(*txn);
    txn->link = &link == &_upi ? 0 : (&link == &_pcie0 ? 1 : 2);

    // A write carries its payload up; a read sends a small request
    // and commits the data leg now so the selector sees the link's
    // true future load until the data line actually returns.
    std::uint64_t wire = txn->isWrite ? txn->bytes : kCtrlBytes;
    if (!txn->isWrite)
        link.notePending(LinkDir::kToFpga, txn->bytes);

    // The request occupies the link's to-host wire starting now and
    // crosses the package one propagation latency after it departs.
    sim::Tick depart = link.reserveDepart(LinkDir::kToHost, wire);
    _eq.scheduleAt(depart + link.latency(),
                   [this, txn = std::move(txn)]() mutable {
                       onHostRequest(std::move(txn));
                   });
}

void
Shell::onHostRequest(DmaTxnPtr txn)
{
    ++_hostRequests;
    mem::Iova iova = txn->iova;
    bool is_write = txn->isWrite;
    std::uint16_t vm = txn->vm;
    std::uint16_t proc = txn->proc;
    _iommu.translate(
        iova, is_write,
        [this,
         txn = std::move(txn)](iommu::TranslationResult tr) mutable {
            if (tr.fault) {
                ++_hostFaults;
                txn->error = true;
                txn->transFault = true;
                returnToFpga(std::move(txn));
                return;
            }
            mem::Hpa hpa = tr.hpa;
            std::uint32_t bytes = txn->bytes;
            bool w = txn->isWrite;
            _memctl.access(
                bytes, w, [this, txn = std::move(txn), hpa]() mutable {
                    if (txn->isWrite)
                        _memory.write(hpa, txn->data.data(),
                                      txn->bytes);
                    else
                        _memory.read(hpa, txn->data.data(),
                                     txn->bytes);
                    returnToFpga(std::move(txn));
                });
        },
        vm, proc);
}

void
Shell::returnToFpga(DmaTxnPtr txn)
{
    _eq.scheduleIn(_returnLatency,
                   [this, txn = std::move(txn)]() mutable {
                       onHostResponse(std::move(txn));
                   });
}

void
Shell::onHostResponse(DmaTxnPtr txn)
{
    Link &link = linkOf(txn->link);
    // The data leg is no longer pending once the response reaches the
    // front — including fault responses, which carry no data at all.
    if (!txn->isWrite)
        link.clearPending(LinkDir::kToFpga, txn->bytes);

    if (txn->error) {
        // Translation faulted host-side; the bounce already paid the
        // return crossing.
        if (txn->transFault) {
            ++_dmaFaults;
            if (_xlatFaultSink)
                _xlatFaultSink(*txn);
        }
        respond(std::move(txn));
        return;
    }

    // Reserve the return leg from the moment the host side finished
    // — one crossing before this event — so back-to-back completions
    // serialize exactly as they would have at the host-side pin.
    std::uint64_t wire = txn->isWrite ? kCtrlBytes : txn->bytes;
    sim::Tick ready = _eq.now() - _returnLatency;
    sim::Tick depart =
        link.reserveDepartAt(ready, LinkDir::kToFpga, wire);
    _eq.scheduleAt(depart + link.latency(),
                   [this, txn = std::move(txn)]() mutable {
                       respond(std::move(txn));
                   });
}

void
Shell::respond(DmaTxnPtr txn)
{
    if (_faultHook && !txn->error) {
        sim::Tick extra = 0;
        switch (_faultHook->onDmaResponse(*txn, &extra)) {
          case DmaFaultHook::Action::kNone:
            break;
          case DmaFaultHook::Action::kDrop:
            ++_dmaDropped;
            if (txn->retries < _dmaMaxRetries) {
                ++txn->retries;
                ++_dmaRetries;
                if (_trace && _trace->wants(sim::TraceKind::kDmaRetry)) {
                    sim::TraceRecord r;
                    r.kind = sim::TraceKind::kDmaRetry;
                    r.comp = _comp;
                    r.start = txn->issuedAt;
                    r.addr = txn->iova.value();
                    r.arg = txn->retries;
                    r.tag = txn->tag;
                    r.vm = txn->vm;
                    r.proc = txn->proc;
                    _trace->emit(r);
                }
                _eq.scheduleIn(_dmaRetryBackoff,
                               [this, txn = std::move(txn)]() mutable {
                                   issue(std::move(txn));
                               });
                return;
            }
            // Retries exhausted: surface a hard error to the AFU.
            txn->error = true;
            break;
          case DmaFaultHook::Action::kDelay:
            _eq.scheduleIn(extra,
                           [this, txn = std::move(txn)]() mutable {
                               deliver(std::move(txn));
                           });
            return;
        }
    }
    deliver(std::move(txn));
}

void
Shell::deliver(DmaTxnPtr txn)
{
    OPTIMUS_ASSERT(_responseSink != nullptr,
                   "shell has no AFU response sink");
    if (_trace && _trace->wants(sim::TraceKind::kDmaComplete)) {
        sim::TraceRecord r;
        r.kind = sim::TraceKind::kDmaComplete;
        r.comp = _comp;
        r.start = txn->issuedAt;
        r.addr = txn->iova.value();
        r.arg = txn->bytes;
        r.tag = txn->tag;
        r.vm = txn->vm;
        r.proc = txn->proc;
        if (txn->isWrite)
            r.flags |= sim::kTraceWrite;
        if (txn->error)
            r.flags |= sim::kTraceError;
        _trace->emit(r);
    }
    _responseSink(std::move(txn));
}

void
Shell::mmioFromHost(MmioOp op)
{
    OPTIMUS_ASSERT(_mmioSink != nullptr, "shell has no AFU MMIO sink");
    // The op crosses to the FPGA; the completion pays the return trip.
    auto inner = std::move(op.onComplete);
    op.onComplete = [this, inner = std::move(inner)](std::uint64_t v) {
        if (inner)
            _eq.scheduleIn(_mmioLinkLatency,
                           [inner, v]() { inner(v); });
    };
    _eq.scheduleIn(_mmioLinkLatency, [this, op = std::move(op)]() mutable {
        _mmioSink(std::move(op));
    });
}

} // namespace optimus::ccip

#include "accel/dma_port.hh"

#include <algorithm>
#include <cstring>
#include <utility>

#include "sim/logging.hh"

namespace optimus::accel {

DmaPort::DmaPort(sim::EventQueue &eq, std::uint64_t freq_mhz,
                 std::string name, sim::Scope scope)
    : sim::Clocked(eq, freq_mhz),
      _trace(scope.bus),
      _comp(sim::traceComponent(scope, name)),
      _reads(scope.node, "reads", "DMA reads issued"),
      _writes(scope.node, "writes", "DMA writes issued"),
      _errors(scope.node, "errors", "DMA completions with error"),
      _latencyHist(scope.node, "latency_hist_ns",
                   "DMA round-trip percentiles (ns)")
{
    _issueEvent.bind(eq, this);
}

void
DmaPort::read(mem::Gva gva, std::uint32_t bytes, Completion cb)
{
    OPTIMUS_ASSERT(bytes > 0 && bytes <= sim::kCacheLineBytes,
                   "bad DMA size %u", bytes);
    ccip::DmaTxnPtr txn = ccip::makeTxn(eventq().arena());
    txn->id = _nextId++;
    txn->isWrite = false;
    txn->gva = gva;
    txn->bytes = bytes;
    txn->vc = _vc;
    enqueue(std::move(txn), std::move(cb));
}

void
DmaPort::write(mem::Gva gva, const void *data, std::uint32_t bytes,
               Completion cb)
{
    OPTIMUS_ASSERT(bytes > 0 && bytes <= sim::kCacheLineBytes,
                   "bad DMA size %u", bytes);
    ccip::DmaTxnPtr txn = ccip::makeTxn(eventq().arena());
    txn->id = _nextId++;
    txn->isWrite = true;
    txn->gva = gva;
    txn->bytes = bytes;
    txn->vc = _vc;
    std::memcpy(txn->data.data(), data, bytes);
    enqueue(std::move(txn), std::move(cb));
}

void
DmaPort::enqueue(ccip::DmaTxnPtr txn, Completion cb)
{
    OPTIMUS_ASSERT(_fabric != nullptr, "DMA port not attached");
    std::uint64_t epoch = _epoch;
    txn->onComplete = [this, epoch, cb = std::move(cb)](
                          ccip::DmaTxn &t) { onResponse(epoch, t, cb); };
    _pending.push_back(std::move(txn));
    tryIssue();
}

void
DmaPort::tryIssue()
{
    while (!_pending.empty() && _outstanding < _maxOutstanding) {
        sim::Tick when = std::max(nextEdge(), _nextIssueAllowed);
        if (when > now()) {
            _issueEvent.schedule(when);
            return;
        }

        ccip::DmaTxnPtr txn = std::move(_pending.front());
        _pending.pop_front();
        txn->issuedAt = now();
        (txn->isWrite ? _writes : _reads) += 1;
        if (_trace && _trace->wants(sim::TraceKind::kDmaIssue)) {
            sim::TraceRecord r;
            r.kind = sim::TraceKind::kDmaIssue;
            r.comp = _comp;
            r.addr = txn->gva.value();
            r.arg = txn->bytes;
            if (txn->isWrite)
                r.flags |= sim::kTraceWrite;
            _trace->emit(r);
        }
        ++_outstanding;
        _nextIssueAllowed =
            now() +
            cyclesToTicks(_fabric->injectIntervalCycles());
        _fabric->dmaRequest(std::move(txn));
    }
}

void
DmaPort::onResponse(std::uint64_t epoch, ccip::DmaTxn &txn,
                    const Completion &cb)
{
    if (epoch != _epoch)
        return; // response for a job that was hard-reset away

    OPTIMUS_ASSERT(_outstanding > 0, "response without request");
    --_outstanding;
    if (txn.error)
        ++_errors;
    _latencyHist.sample((now() - txn.issuedAt) / sim::kTickNs);

    if (cb)
        cb(txn);

    tryIssue();
    if (idle() && _drainCb) {
        auto f = std::move(_drainCb);
        _drainCb = nullptr;
        f();
    }
}

void
DmaPort::notifyWhenDrained(std::function<void()> cb)
{
    OPTIMUS_ASSERT(!_drainCb, "drain callback already armed");
    if (idle()) {
        cb();
        return;
    }
    _drainCb = std::move(cb);
}

void
DmaPort::reset()
{
    ++_epoch;
    _pending.clear();
    _outstanding = 0;
    _nextIssueAllowed = 0;
    _issueEvent.cancel();
    _drainCb = nullptr;
}

} // namespace optimus::accel

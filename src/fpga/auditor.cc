#include "fpga/auditor.hh"

#include <utility>

#include "fpga/mmio_layout.hh"
#include "fpga/mux_tree.hh"
#include "sim/logging.hh"

namespace optimus::fpga {

Auditor::Auditor(sim::EventQueue &eq, const sim::PlatformParams &params,
                 ccip::AccelTag tag, sim::Scope scope)
    : sim::Clocked(eq, params.fpgaIfaceMhz),
      _tag(tag),
      _latencyCycles(params.auditorCycles),
      _injectInterval(params.monitorInjectInterval),
      _rejected(scope.node, "rejected_dmas",
                "DMA requests outside the allowed window"),
      _discarded(scope.node, "discarded_responses",
                 "downstream packets dropped by tag check"),
      _forwarded(scope.node, "forwarded",
                 "DMA requests translated and forwarded")
{
    _pumpEvent.bind(eq, this);
}

void
Auditor::attachLeaf(MuxNode &node, std::uint32_t port)
{
    _leaf = &node;
    _leafPort = port;
    node.setWake(port, [this]() { pumpUpstream(); });
}

void
Auditor::dmaRequest(ccip::DmaTxnPtr txn)
{
    // Attribution: everything this DMA touches downstream (IOTLB,
    // links, shell counters, trace records) knows its tenant.
    txn->vm = _vm;
    txn->proc = _proc;
    const std::uint64_t gva = txn->gva.value();
    const bool in_window =
        _entry.valid && gva >= _entry.gvaBase &&
        gva + txn->bytes <= _entry.gvaBase + _entry.window;

    if (!in_window) {
        // Page table slicing's enforcement point: the access never
        // reaches the interconnect. Respond with a bus error so the
        // accelerator does not hang (and tests can observe it).
        ++_rejected;
        txn->error = true;
        scheduleCycles(_latencyCycles, [txn = std::move(txn)]() {
            if (txn->onComplete)
                txn->onComplete(*txn);
        });
        return;
    }

    // Linear address mapping: a single-cycle add (Section 4.1).
    txn->iova = mem::Iova(gva + _entry.offset);
    txn->tag = _tag;
    ++_forwarded;
    _outQueue.push_back(std::move(txn));
    pumpUpstream();
}

void
Auditor::pumpUpstream()
{
    if (_outQueue.empty())
        return;
    // One packet per cycle into the tree, gated by the leaf credit.
    // While idle or stalled the pump event stays unarmed (clock
    // gating); the leaf's credit return calls back in here.
    if (!_leaf->hasSpace(_leafPort))
        return;
    _pumpEvent.schedule(std::max(nextEdge(), _busyUntil));
}

void
Auditor::pumpStep()
{
    if (_outQueue.empty())
        return;
    if (!_leaf->hasSpace(_leafPort))
        return;
    ccip::DmaTxnPtr txn = std::move(_outQueue.front());
    _outQueue.pop_front();
    _leaf->reserve(_leafPort);
    _busyUntil = now() + clockPeriod();
    scheduleCycles(_latencyCycles,
                   [this, txn = std::move(txn)]() mutable {
                       _leaf->arrive(_leafPort, std::move(txn));
                   });
    pumpUpstream();
}

void
Auditor::deliverDown(ccip::DmaTxnPtr txn)
{
    if (txn->tag != _tag) {
        ++_discarded;
        return;
    }
    OPTIMUS_ASSERT(_device != nullptr,
                   "auditor %u has no attached accelerator", _tag);
    scheduleCycles(_latencyCycles,
                   [this, txn = std::move(txn)]() mutable {
                       _device->dmaResponse(std::move(txn));
                   });
}

bool
Auditor::mmioDown(ccip::MmioOp &op, std::uint64_t my_base)
{
    if (op.offset < my_base || op.offset >= my_base + kAccelMmioBytes)
        return false;
    OPTIMUS_ASSERT(_device != nullptr,
                   "auditor %u has no attached accelerator", _tag);

    mmioAccess(*_device, op.offset - my_base, op);
    return true;
}

} // namespace optimus::fpga

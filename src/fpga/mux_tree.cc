#include "fpga/mux_tree.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace optimus::fpga {

MuxNode::MuxNode(sim::EventQueue &eq, std::uint64_t freq_mhz,
                 std::uint32_t arity, std::uint32_t up_latency_cycles,
                 sim::Scope scope)
    : sim::Clocked(eq, freq_mhz),
      _upLatencyCycles(up_latency_cycles),
      _queues(arity),
      _reserved(arity, 0),
      _wake(arity),
      _trace(scope.bus),
      _comp(sim::traceComponent(scope, "mux"))
{
    OPTIMUS_ASSERT(arity >= 2, "multiplexer arity must be >= 2");
    _serviceEvent.bind(eq, this);
}

void
MuxNode::setWake(std::uint32_t child, Wake w)
{
    OPTIMUS_ASSERT(child < _wake.size(), "bad mux input port");
    _wake[child] = std::move(w);
}

void
MuxNode::reserve(std::uint32_t child)
{
    OPTIMUS_ASSERT(hasSpace(child), "mux reserve without credit");
    ++_reserved[child];
}

void
MuxNode::arrive(std::uint32_t child, ccip::DmaTxnPtr txn)
{
    OPTIMUS_ASSERT(child < _queues.size(), "bad mux input port");
    OPTIMUS_ASSERT(_reserved[child] > 0, "mux arrival without reserve");
    --_reserved[child];
    _queues[child].push_back(std::move(txn));
    ++_queued;
    scheduleService();
}

void
MuxNode::scheduleService()
{
    // Clock gating: an idle node leaves its service event unarmed
    // and burns no simulation events; arrive() and credit returns
    // call back in here to wake it.
    if (_queued == 0)
        return;
    _serviceEvent.schedule(std::max(nextEdge(), _busyUntil));
}

void
MuxNode::service()
{
    // Output backpressure: if the parent has no credit for us, stall;
    // the parent wakes us when it frees a slot.
    if (_parent && !_parent->hasSpace(_parentPort))
        return;

    // Round-robin: start scanning from the port after the last one
    // served so every backpressured child gets an equal share.
    const auto n = static_cast<std::uint32_t>(_queues.size());
    std::uint32_t pick = n;
    for (std::uint32_t i = 0; i < n; ++i) {
        std::uint32_t c = _rr + i;
        if (c >= n)
            c -= n;
        if (!_queues[c].empty()) {
            pick = c;
            break;
        }
    }
    if (pick == n)
        return; // spurious wakeup; nothing queued

    ccip::DmaTxnPtr txn = _queues[pick].pop_front();
    --_queued;
    _rr = pick + 1 == n ? 0 : pick + 1;

    if (_trace && _trace->wants(sim::TraceKind::kMuxGrant)) {
        sim::TraceRecord r;
        r.kind = sim::TraceKind::kMuxGrant;
        r.comp = _comp;
        r.addr = txn->iova.value();
        r.arg = pick;
        r.tag = txn->tag;
        r.vm = txn->vm;
        r.proc = txn->proc;
        if (txn->isWrite)
            r.flags |= sim::kTraceWrite;
        _trace->emit(r);
    }

    // One packet per cycle leaves this node; the packet itself takes
    // the pipeline latency to reach the next level.
    _busyUntil = now() + clockPeriod();
    if (_parent) {
        _parent->reserve(_parentPort);
        MuxNode *parent = _parent;
        std::uint32_t port = _parentPort;
        eventq().scheduleIn(cyclesToTicks(_upLatencyCycles),
                            [parent, port,
                             txn = std::move(txn)]() mutable {
                                parent->arrive(port, std::move(txn));
                            });
    } else {
        OPTIMUS_ASSERT(_rootSink, "mux root has no sink");
        _rootSink(std::move(txn), now() + cyclesToTicks(_upLatencyCycles));
    }

    // Credit return: whoever feeds the served port may proceed.
    if (_wake[pick])
        _wake[pick]();

    scheduleService();
}

MuxTree::MuxTree(sim::EventQueue &eq, const sim::PlatformParams &params,
                 std::uint32_t leaves, std::uint32_t arity,
                 sim::Scope scope)
    : _eq(eq),
      _leaves(leaves),
      _arity(arity),
      _levels(0),
      _period(sim::periodFromMhz(params.fpgaIfaceMhz))
{
    OPTIMUS_ASSERT(leaves >= 1, "tree needs at least one leaf");

    // Number of levels: how many times we must divide by the arity
    // to reach a single node.
    std::uint32_t width = leaves;
    while (width > 1) {
        width = (width + arity - 1) / arity;
        ++_levels;
    }
    _levels = std::max(_levels, 1u);

    _downLatency = static_cast<sim::Tick>(_levels) *
                   params.muxDownCyclesPerLevel * _period;

    // Build levels from the root (index 0) down; level L has
    // ceil(leaves / arity^(levels-L)) nodes.
    std::uint64_t nodes_at = 1;
    for (std::uint32_t level = 0; level < _levels; ++level) {
        auto &row = _nodes.emplace_back();
        for (std::uint64_t i = 0; i < nodes_at; ++i) {
            row.push_back(std::make_unique<MuxNode>(
                eq, params.fpgaIfaceMhz, arity,
                params.muxUpCyclesPerLevel,
                scope.sub(sim::strprintf("l%un%u", level,
                                         static_cast<unsigned>(i)))));
        }
        nodes_at *= arity;
    }

    // Wire each node to its parent's input port, and the credit
    // return (wake) in the other direction.
    for (std::uint32_t level = 1; level < _levels; ++level) {
        for (std::uint32_t i = 0; i < _nodes[level].size(); ++i) {
            MuxNode *n = _nodes[level][i].get();
            MuxNode *parent = _nodes[level - 1][i / _arity].get();
            std::uint32_t port = i % _arity;
            n->setParent(parent, port);
            parent->setWake(port,
                            [n]() { n->scheduleService(); });
        }
    }
}

void
MuxTree::setRootSink(MuxNode::RootSink d)
{
    _nodes[0][0]->setRootSink(std::move(d));
}

std::pair<MuxNode *, std::uint32_t>
MuxTree::leafAttach(std::uint32_t leaf)
{
    OPTIMUS_ASSERT(leaf < _leaves, "bad leaf index");
    const auto &bottom = _nodes[_levels - 1];
    std::uint32_t node_idx = leaf / _arity;
    OPTIMUS_ASSERT(node_idx < bottom.size(),
                   "leaf maps past bottom row");
    return {bottom[node_idx].get(), leaf % _arity};
}

void
MuxTree::down(ccip::DmaTxnPtr txn)
{
    OPTIMUS_ASSERT(_downSink, "mux tree has no down sink");
    // The downstream path is a broadcast pipeline: one packet may
    // enter per fabric cycle at the root and arrives at every auditor
    // after the full downstream latency.
    sim::Tick start = std::max(_eq.now(), _downBusyUntil);
    _downBusyUntil = start + _period;
    _eq.scheduleAt(start + _downLatency,
                   [this, txn = std::move(txn)]() mutable {
                       _downSink(std::move(txn));
                   });
}

} // namespace optimus::fpga

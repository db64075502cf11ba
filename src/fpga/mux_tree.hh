/**
 * @file
 * The hardware monitor's multiplexer tree (Section 4.1).
 *
 * Propagates request packets from the accelerators up to the shell and
 * response packets back down. Every node arbitrates among its children
 * with round-robin scheduling over small, credit-flow-controlled input
 * queues — as the real RTL does with ready/valid handshakes — which is
 * what guarantees each accelerator at least 1/N of the real-time
 * bandwidth (Section 6.7): a saturated node's slots alternate among
 * its backpressured children exactly.
 *
 * The tree does not make routing decisions on the way down — packets
 * are broadcast toward all auditors, which filter them (lazy routing).
 *
 * Each level adds a fixed pipeline latency (~33 ns round trip at
 * 400 MHz), the cost Fig 4a attributes to choosing a scalable tree
 * over a flat multiplexer.
 */

#ifndef OPTIMUS_FPGA_MUX_TREE_HH
#define OPTIMUS_FPGA_MUX_TREE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "ccip/packet.hh"
#include "sim/clocked.hh"
#include "sim/event_queue.hh"
#include "sim/platform_params.hh"
#include "sim/stats.hh"

namespace optimus::fpga {

/** One round-robin multiplexer in the tree. */
class MuxNode : public sim::Clocked
{
  public:
    /** Inline-stored hooks (see inline_function.hh): tree wiring is
     *  all tiny captures (a node pointer and a port), and these fire
     *  per packet, so they bypass std::function's double indirection
     *  and never allocate. */
    using Deliver = sim::InlineFunction<void(ccip::DmaTxnPtr),
                                        sim::kCompletionCaptureBytes>;
    using Wake =
        sim::InlineFunction<void(), sim::kCompletionCaptureBytes>;

    /** Input-queue depth per child port (ready/valid skid buffer). */
    static constexpr std::uint32_t kQueueDepth = 8;

    MuxNode(sim::EventQueue &eq, std::uint64_t freq_mhz,
            std::uint32_t arity, std::uint32_t up_latency_cycles,
            sim::Scope scope = {});

    /** Wire this node's output to input @p port of @p parent. */
    void
    setParent(MuxNode *parent, std::uint32_t port)
    {
        _parent = parent;
        _parentPort = port;
    }

    /** Takes a packet granted by the root, with the tick it leaves
     *  the root's pipeline. */
    using RootSink = sim::InlineFunction<void(ccip::DmaTxnPtr, sim::Tick),
                                         sim::kCompletionCaptureBytes>;

    /** Root only: where packets leaving the tree go (no backpressure
     *  — the shell accepts one packet per cycle). */
    void setRootSink(RootSink d) { _rootSink = std::move(d); }

    /**
     * Called by whoever feeds input @p child when this node frees a
     * slot on that input (the credit return).
     */
    void setWake(std::uint32_t child, Wake w);

    /** Whether input @p child can take another packet (credit). */
    bool
    hasSpace(std::uint32_t child) const
    {
        return _queues[child].size() + _reserved[child] < kQueueDepth;
    }

    /**
     * One input port's skid buffer: a fixed-capacity ring. The depth
     * is a hardware constant, so the buffer lives inline in the node
     * (no deque block indirection) and the wrap is a power-of-two
     * mask.
     */
    class PortQueue
    {
      public:
        bool empty() const { return _count == 0; }
        std::uint32_t size() const { return _count; }

        void
        push_back(ccip::DmaTxnPtr t)
        {
            _buf[(_head + _count) & (kQueueDepth - 1)] = std::move(t);
            ++_count;
        }

        ccip::DmaTxnPtr
        pop_front()
        {
            ccip::DmaTxnPtr t = std::move(_buf[_head]);
            _head = (_head + 1) & (kQueueDepth - 1);
            --_count;
            return t;
        }

      private:
        static_assert((kQueueDepth & (kQueueDepth - 1)) == 0,
                      "ring wrap relies on a power-of-two depth");
        std::array<ccip::DmaTxnPtr, kQueueDepth> _buf;
        std::uint32_t _head = 0;
        std::uint32_t _count = 0;
    };

    /** Claim a slot on input @p child for a packet now in flight. */
    void reserve(std::uint32_t child);

    /** The in-flight packet lands on input @p child. */
    void arrive(std::uint32_t child, ccip::DmaTxnPtr txn);

    /** (Re)arm the service loop; idempotent. */
    void scheduleService();

  private:
    void service();

    std::uint32_t _upLatencyCycles;
    std::vector<PortQueue> _queues;
    std::vector<std::uint32_t> _reserved;
    std::vector<Wake> _wake;
    std::uint32_t _rr = 0;
    /** Total packets across all input queues (O(1) idle check). */
    std::uint32_t _queued = 0;
    /** Recyclable service event: the node is clock-gated whenever
     *  this is unarmed, and arrives/credit returns re-arm it. */
    sim::MemberEvent<MuxNode, &MuxNode::service> _serviceEvent;
    sim::Tick _busyUntil = 0;

    MuxNode *_parent = nullptr;
    std::uint32_t _parentPort = 0;
    RootSink _rootSink;

    sim::TraceBus *_trace = nullptr;
    std::uint32_t _comp = 0;
};

/** The full multiplexer tree with its broadcast down-path. */
class MuxTree
{
  public:
    /**
     * @param leaves Number of accelerator attach points.
     * @param arity Children per node (2 for the paper's default
     *              three-level binary tree with 8 accelerators).
     */
    MuxTree(sim::EventQueue &eq, const sim::PlatformParams &params,
            std::uint32_t leaves, std::uint32_t arity = 2,
            sim::Scope scope = {});

    std::uint32_t levels() const { return _levels; }

    /** A leaf's attach point: the bottom-row node and the input port
     *  its auditor feeds. */
    std::pair<MuxNode *, std::uint32_t> leafAttach(std::uint32_t leaf);

    /** Where packets emerging from the root are delivered (the VCU),
     *  at grant time with the tick they leave the root's pipeline:
     *  nothing arbitrates after the root, so the sink carries that
     *  latency instead of the tree spending an event on it. */
    void setRootSink(MuxNode::RootSink d);

    /**
     * Send a response packet down the tree. It is delivered to the
     * down-sink (which broadcasts to every auditor) after the
     * tree's downstream latency, at a maximum rate of one packet per
     * fabric cycle.
     */
    void down(ccip::DmaTxnPtr txn);

    /** Broadcast target for downstream packets. */
    void setDownSink(MuxNode::Deliver d) { _downSink = std::move(d); }

    /** One-way downstream latency through all levels. */
    sim::Tick downLatency() const { return _downLatency; }

  private:
    sim::EventQueue &_eq;
    std::uint32_t _leaves;
    std::uint32_t _arity;
    std::uint32_t _levels;
    sim::Tick _period;
    sim::Tick _downLatency;
    sim::Tick _downBusyUntil = 0;

    /** _nodes[0] is the root level; the last level touches leaves. */
    std::vector<std::vector<std::unique_ptr<MuxNode>>> _nodes;
    MuxNode::Deliver _downSink;
};

} // namespace optimus::fpga

#endif // OPTIMUS_FPGA_MUX_TREE_HH

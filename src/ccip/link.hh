/**
 * @file
 * A timed, full-duplex package interconnect link (UPI or PCIe).
 */

#ifndef OPTIMUS_CCIP_LINK_HH
#define OPTIMUS_CCIP_LINK_HH

#include <cstdint>
#include <string>

#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/telemetry.hh"
#include "sim/types.hh"

namespace optimus::ccip {

/** Direction of travel across the package. */
enum class LinkDir : std::uint8_t
{
    kToHost, ///< FPGA -> CPU/memory (requests, write data)
    kToFpga, ///< CPU/memory -> FPGA (responses, read data)
};

/**
 * Latency + per-direction serialization model of one link.
 *
 * Each direction is an independently occupied channel: a transfer of
 * N bytes holds the channel for N / bandwidth and arrives at the far
 * side one propagation latency after it departs.
 */
class Link
{
  public:
    /**
     * @param read_gbps Payload bandwidth for the kToFpga direction.
     * @param write_gbps Payload bandwidth for the kToHost direction.
     */
    Link(sim::EventQueue &eq, std::string name, sim::Tick latency,
         double read_gbps, double write_gbps,
         sim::Scope scope = {});

    const std::string &name() const { return _name; }
    sim::Tick latency() const { return _latency; }

    /**
     * Queue @p bytes for transfer in @p dir; @p on_delivered fires
     * when the last byte arrives at the far side.
     */
    void transfer(LinkDir dir, std::uint64_t bytes,
                  sim::EventQueue::Callback on_delivered);

    /**
     * Reserve the @p dir channel for @p bytes, as if the transfer
     * became ready to serialize at tick @p ready: occupancy begins at
     * max(ready, channel free), runs for the serialization time, and
     * the departure tick is returned. The last byte then arrives at
     * the far side at depart + latency(); the caller owns modeling
     * that arrival (the Shell schedules it on the node's queue).
     * @p ready may be in this queue's past — the channel may have
     * been occupied beyond it anyway — which is how the response leg
     * reserves from the moment the host side actually finished, one
     * crossing before the reservation executes here.
     */
    sim::Tick reserveDepartAt(sim::Tick ready, LinkDir dir,
                              std::uint64_t bytes);

    /** reserveDepartAt from the current tick. */
    sim::Tick
    reserveDepart(LinkDir dir, std::uint64_t bytes)
    {
        return reserveDepartAt(_eq.now(), dir, bytes);
    }

    /**
     * Earliest tick at which a new transfer in @p dir could begin
     * (used by the automatic channel selector).
     */
    sim::Tick nextFree(LinkDir dir) const
    {
        return dir == LinkDir::kToHost ? _toHostFree : _toFpgaFree;
    }

    /**
     * Account for bytes that have been committed to this link but
     * whose serialization has not begun yet (e.g., a read's data leg
     * while the request is still crossing to the host). The channel
     * selector must see these or it oscillates and overloads the
     * narrow links.
     */
    void
    notePending(LinkDir dir, std::uint64_t bytes)
    {
        (dir == LinkDir::kToHost ? _toHostPending
                                 : _toFpgaPending) += bytes;
    }
    void
    clearPending(LinkDir dir, std::uint64_t bytes)
    {
        std::uint64_t &p = dir == LinkDir::kToHost ? _toHostPending
                                                   : _toFpgaPending;
        p = p >= bytes ? p - bytes : 0;
    }
    std::uint64_t
    pendingBytes(LinkDir dir) const
    {
        return dir == LinkDir::kToHost ? _toHostPending
                                       : _toFpgaPending;
    }

    sim::Tick nowTick() const { return _eq.now(); }

    /** Serialization time for @p bytes in @p dir. */
    sim::Tick serialization(LinkDir dir, std::uint64_t bytes) const;

    std::uint64_t bytesToHost() const { return _bytesToHost.value(); }
    std::uint64_t bytesToFpga() const { return _bytesToFpga.value(); }

  private:
    sim::EventQueue &_eq;
    std::string _name;
    sim::Tick _latency;
    double _toFpgaBytesPerTick;
    double _toHostBytesPerTick;
    sim::Tick _toHostFree = 0;
    sim::Tick _toFpgaFree = 0;
    /** Per-direction memo of the last two (bytes -> serialization
     *  ticks) divides. A direction's transfers alternate between a
     *  payload size and the control size, so two entries keep both
     *  resident; the memo returns the exact value the divide
     *  produced, so results stay bit-identical. */
    std::uint64_t _serMemoBytes[2][2] = {
        {~std::uint64_t(0), ~std::uint64_t(0)},
        {~std::uint64_t(0), ~std::uint64_t(0)}};
    sim::Tick _serMemoTicks[2][2] = {};
    std::uint64_t _toHostPending = 0;
    std::uint64_t _toFpgaPending = 0;
    sim::Counter _bytesToHost;
    sim::Counter _bytesToFpga;
};

} // namespace optimus::ccip

#endif // OPTIMUS_CCIP_LINK_HH

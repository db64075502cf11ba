#include "ccip/link.hh"

#include <algorithm>

namespace optimus::ccip {

Link::Link(sim::EventQueue &eq, std::string name, sim::Tick latency,
           double read_gbps, double write_gbps, sim::Scope scope)
    : _eq(eq),
      _name(std::move(name)),
      _latency(latency),
      // GB/s == bytes/ns == bytes per kTickNs ticks.
      _toFpgaBytesPerTick(read_gbps / static_cast<double>(sim::kTickNs)),
      _toHostBytesPerTick(write_gbps /
                          static_cast<double>(sim::kTickNs)),
      _bytesToHost(scope.node, "bytes_to_host",
                   "bytes carried toward the host"),
      _bytesToFpga(scope.node, "bytes_to_fpga",
                   "bytes carried toward the FPGA")
{
}

sim::Tick
Link::serialization(LinkDir dir, std::uint64_t bytes) const
{
    double bpt = dir == LinkDir::kToHost ? _toHostBytesPerTick
                                         : _toFpgaBytesPerTick;
    return static_cast<sim::Tick>(static_cast<double>(bytes) / bpt);
}

sim::Tick
Link::reserveDepartAt(sim::Tick ready, LinkDir dir,
                      std::uint64_t bytes)
{
    sim::Tick &free_at =
        dir == LinkDir::kToHost ? _toHostFree : _toFpgaFree;
    (dir == LinkDir::kToHost ? _bytesToHost : _bytesToFpga) += bytes;

    std::size_t d = dir == LinkDir::kToHost ? 0 : 1;
    sim::Tick ser;
    if (bytes == _serMemoBytes[d][0]) {
        ser = _serMemoTicks[d][0];
    } else if (bytes == _serMemoBytes[d][1]) {
        ser = _serMemoTicks[d][1];
    } else {
        ser = serialization(dir, bytes);
        _serMemoBytes[d][1] = _serMemoBytes[d][0];
        _serMemoTicks[d][1] = _serMemoTicks[d][0];
        _serMemoBytes[d][0] = bytes;
        _serMemoTicks[d][0] = ser;
    }

    sim::Tick start = std::max(ready, free_at);
    sim::Tick depart = start + ser;
    free_at = depart;
    return depart;
}

} // namespace optimus::ccip

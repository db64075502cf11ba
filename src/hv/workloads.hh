/**
 * @file
 * Workload generators for the fourteen benchmark accelerators:
 * deterministic input synthesis, register programming through the
 * userspace API, and end-to-end output verification against the
 * software reference kernels. Shared by the tests, the examples,
 * and every benchmark harness.
 */

#ifndef OPTIMUS_HV_WORKLOADS_HH
#define OPTIMUS_HV_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>

#include "accel/algo/graph.hh"
#include "hv/guest_api.hh"

namespace optimus::hv::workload {

/** One prepared acceleration job. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Allocate buffers, write input data, program app registers. */
    virtual void program() = 0;

    /** After the job completes: check outputs against software.
     *  Untimed (guest memory and the hypervisor's RESULT/PROGRESS
     *  peeks), so it may run inside a completion handler. */
    virtual bool verify() = 0;

    /** Approximate input bytes the job streams (for reporting). */
    virtual std::uint64_t inputBytes() const = 0;

    /**
     * Build the workload for @p app sized to roughly @p bytes of
     * input, deterministic in @p seed. fatal() on unknown app.
     */
    static std::unique_ptr<Workload> create(const std::string &app,
                                            AccelHandle &handle,
                                            std::uint64_t bytes,
                                            std::uint64_t seed);
};

/** A linked list placed in DMA memory (for LL and Fig 4/5). */
struct LinkedListLayout
{
    mem::Gva head{};
    std::uint64_t nodes = 0;
    std::uint64_t checksum = 0; ///< expected sum of payload[0]
};

/**
 * Build a linked list of @p nodes cache-line nodes whose order is a
 * deterministic random permutation of a contiguous region (so the
 * walk defeats locality, like the paper's LinkedList).
 */
LinkedListLayout buildLinkedList(AccelHandle &handle,
                                 std::uint64_t nodes,
                                 std::uint64_t seed);

/**
 * Build a circular linked list of @p nodes nodes scattered across a
 * freshly allocated @p region_bytes DMA region (nodes land on
 * random, distinct cache lines spread over the whole region). Used
 * by the latency sweeps: the walk's *address distribution* covers
 * the full working set while only the visited lines are
 * materialized on the simulation host.
 */
LinkedListLayout buildScatteredLinkedList(AccelHandle &handle,
                                          std::uint64_t region_bytes,
                                          std::uint64_t nodes,
                                          std::uint64_t seed);

/** A CSR graph placed in DMA memory (for SSSP and Fig 1). */
struct GraphLayout
{
    mem::Gva rowptr{};
    mem::Gva edges{};
    mem::Gva dist{};
    std::uint32_t vertices = 0;
    std::uint64_t edgeCount = 0;
    std::uint32_t source = 0;
};

/** Write @p g into the handle's DMA memory and init distances. */
GraphLayout placeGraph(AccelHandle &handle, const algo::CsrGraph &g,
                       std::uint32_t source);

/** Program the SSSP accelerator's registers from a layout. */
void programSssp(AccelHandle &handle, const GraphLayout &layout);

} // namespace optimus::hv::workload

#endif // OPTIMUS_HV_WORKLOADS_HH

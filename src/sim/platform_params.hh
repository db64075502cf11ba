/**
 * @file
 * Calibrated platform parameters for the simulated HARP-like system.
 *
 * These constants are the single place where the simulation is
 * anchored to the published characteristics of the Intel Skylake HARP
 * platform the paper evaluates on (2.8 GHz Xeon, 400 MHz Arria 10,
 * one UPI + two PCIe 3.0 links, 512-entry IOTLB). Everything the
 * benchmarks report is emergent from the component models given these
 * anchors.
 */

#ifndef OPTIMUS_SIM_PLATFORM_PARAMS_HH
#define OPTIMUS_SIM_PLATFORM_PARAMS_HH

#include <cstdint>

#include "sim/types.hh"

namespace optimus::sim {

struct PlatformParams
{
    // ------------------------------------------------------------ clocks
    /** FPGA interface / hardware-monitor clock (MHz). */
    std::uint64_t fpgaIfaceMhz = 400;

    // ------------------------------------------------- interconnect links
    /**
     * One-way propagation latency per link. Calibrated so that a
     * pass-through pointer-chase observes ~0.41 us per node on UPI and
     * ~0.90 us on PCIe (HARP's published read-latency asymmetry,
     * CCI-P manual / Fig 4a of the paper).
     */
    Tick upiLatency = 160 * kTickNs;    ///< one way; RT adds memory.
    Tick pcieLatency = 404 * kTickNs;   ///< one way.

    /**
     * Effective per-link sustained bandwidth for 64 B random reads
     * (bytes per nanosecond == GB/s). Totals ~14.2 GB/s, matching the
     * platform's sustained random-access ceiling implied by Fig 6.
     */
    double upiReadGbps = 7.5;
    double pcieReadGbps = 3.35;
    /** Writes sustain a lower rate on this platform. */
    double writeBwFactor = 0.72;

    // ------------------------------------------------------------ memory
    /** DRAM controller fixed access latency. */
    Tick dramLatency = 85 * kTickNs;
    /** DRAM sustained bandwidth (GB/s); above link totals. */
    double dramGbps = 38.0;

    // ------------------------------------------------------------- IOMMU
    /** IOTLB entries (both 4 KB and 2 MB page modes). */
    std::uint32_t iotlbEntries = 512;
    /** IOTLB hit adds this many FPGA-interface cycles. */
    std::uint32_t iotlbHitCycles = 2;
    /**
     * IOTLB miss penalty: the soft IOMMU fetches the IO page table
     * entry from host memory across the package interconnect.
     */
    Tick pageWalkLatency = 560 * kTickNs;

    // ---------------------------------------------------- hardware monitor
    /**
     * Per-level, per-direction latency in FPGA-interface cycles.
     * 6+7 cycles at 400 MHz ~= 32.5 ns round trip per level; three
     * levels induce the ~100 ns Fig 4a attributes to the tree.
     */
    std::uint32_t muxUpCyclesPerLevel = 7;
    std::uint32_t muxDownCyclesPerLevel = 6;
    /**
     * Minimum FPGA-interface cycles between DMA injections per
     * accelerator under the monitor; the paper measures one request
     * every two cycles due to routing complexity (Section 6.3). A
     * pass-through accelerator injects every cycle.
     */
    std::uint32_t monitorInjectInterval = 2;
    /** Auditor translation/tag-check cost (cycles, each direction). */
    std::uint32_t auditorCycles = 1;
    /** VCU ingress routing cost (cycles). */
    std::uint32_t vcuCycles = 1;

    // ----------------------------------------------------- MMIO / traps
    /** Native (unvirtualized) MMIO access latency. */
    Tick mmioNative = 300 * kTickNs;
    /** Extra cost of a hypervisor trap-and-emulate per MMIO. */
    Tick trapEmulateCost = 2200 * kTickNs;
    /** Cost of the shadow-paging page-registration hypercall. */
    Tick hypercallCost = 2600 * kTickNs;

    // ------------------------------------------------- shared-memory rings
    /**
     * Device-side ring-poll granularity (FPGA-interface cycles): the
     * clock-gated poller re-checks the submission ring this many
     * cycles after being woken, standing in for the cache-coherent
     * polling interval of a real shared-memory command ring.
     */
    std::uint32_t ringPollCycles = 16;
    /**
     * Host-side cost of publishing new submission-ring entries: a
     * pair of CPU stores plus the coherence traffic that makes the
     * sequence word globally visible — two orders of magnitude below
     * trapEmulateCost, which is the whole point of the ring path.
     */
    Tick ringPublishCost = 40 * kTickNs;

    // ------------------------------------------------- temporal multiplexing
    /** Default scheduler time slice (10 ms per the paper). */
    Tick timeSlice = 10 * kTickMs;
    /** Forcible-reset timeout for accelerators that fail to cede. */
    Tick preemptTimeout = 5 * kTickMs;
    /**
     * Fixed software cost per context switch: trap handling, offset
     * and reset table updates, application-register synchronization.
     */
    Tick contextSwitchSwCost = 38 * kTickUs;
    /**
     * Effective bandwidth at which accelerator execution state is
     * saved/restored to its guest buffer (GB/s). State transfer uses
     * MMIO-paced bursts, well below the DMA streaming rate.
     */
    double stateSaveGbps = 3.4;

    // ------------------------------------------------------- fault handling
    /** Bounded retries for transiently dropped CCI-P responses. */
    std::uint32_t dmaMaxRetries = 3;
    /** Backoff before a dropped response is re-issued. */
    Tick dmaRetryBackoff = 2 * kTickUs;

    // ---------------------------------------------------- address layout
    /** Per-virtual-accelerator IOVA slice (64 GiB default, Sec. 5). */
    std::uint64_t sliceBytes = 64ULL << 30;
    /** Whether the conflict-mitigation gap is applied: a guard of
     *  iotlbEntries/8 pages after each slice (128 MiB at the default
     *  2 MiB pages, Section 5; OptimusHv::sliceStride). */
    bool iotlbConflictMitigation = true;
    /** DMA page size: 2 MiB huge pages by default. */
    std::uint64_t pageBytes = 2ULL << 20;

    /** Default parameter set (Intel Skylake HARP calibration). */
    static PlatformParams harpDefaults() { return PlatformParams{}; }
};

} // namespace optimus::sim

#endif // OPTIMUS_SIM_PLATFORM_PARAMS_HH

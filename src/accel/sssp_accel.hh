/**
 * @file
 * SSSP: frontier-based single-source shortest paths over a CSR graph
 * in shared memory — the paper's motivating pointer-chasing workload
 * (Section 2.1). The accelerator chases rowptr -> edge array -> dist
 * array entirely through its own DMAs; the CPU only supplies the
 * base pointers.
 *
 * Guest memory layout (all arrays cache-line aligned):
 *   ROWPTR  u32[n+1]   CSR row offsets
 *   EDGES   {u32 dest, u32 weight}[m]
 *   DIST    u32[n]     initialized by the guest (INF except source)
 */

#ifndef OPTIMUS_ACCEL_SSSP_ACCEL_HH
#define OPTIMUS_ACCEL_SSSP_ACCEL_HH

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "accel/accelerator.hh"

namespace optimus::accel {

/** Shared-memory SSSP engine. */
class SsspAccel : public Accelerator
{
  public:
    static constexpr std::uint32_t kRegRowptr = 0;
    static constexpr std::uint32_t kRegEdges = 1;
    static constexpr std::uint32_t kRegDist = 2;
    static constexpr std::uint32_t kRegNvert = 3;
    static constexpr std::uint32_t kRegSource = 4;
    /** Vertex chains processed concurrently (0 = default 16). */
    static constexpr std::uint32_t kRegWindow = 5;

    static constexpr std::uint32_t kDefaultVertexWindow = 16;

    SsspAccel(sim::EventQueue &eq, const sim::PlatformParams &params,
              std::string name, sim::Scope scope = {});

    std::uint64_t relaxations() const { return _relaxations; }
    std::uint64_t rounds() const { return _rounds; }

  protected:
    void onStart() override;
    void onSoftReset() override;
    void saveArchState(StateWriter &w) const override;
    void restoreArchState(StateReader &r) override;
    void onResumed() override;
    std::uint64_t archStateCapacity() const override;

  private:
    /** One queued relaxation: candidate distance for a vertex. */
    struct Relax
    {
        std::uint32_t vertex;
        std::uint32_t dist;
    };

    void dispatch();
    void startVertex(std::uint32_t v);
    void fetchEdges(std::uint32_t v, std::uint32_t dv,
                    std::uint32_t begin, std::uint32_t end);
    void relax(std::uint32_t dst, std::uint32_t nd);
    void serviceLine(std::uint64_t line_gva);
    void markNext(std::uint32_t v);
    void maybeEndRound();

    // Configuration snapshots (loaded at start).
    std::uint64_t _rowptr = 0;
    std::uint64_t _edges = 0;
    std::uint64_t _dist = 0;
    std::uint32_t _nvert = 0;

    std::uint32_t _vertexWindow = kDefaultVertexWindow;
    std::vector<std::uint32_t> _frontier;
    std::vector<std::uint32_t> _next;
    std::vector<bool> _inNext;
    std::uint32_t _frontierPos = 0;
    std::uint32_t _activeVertices = 0;

    /**
     * Per-cache-line combining buffers for dist read-modify-writes:
     * a line with an RMW in flight queues later relaxations, which
     * are merged into one update when the line returns (and lost
     * updates are impossible).
     */
    std::unordered_map<std::uint64_t, std::deque<Relax>> _lineOps;

    std::uint64_t _relaxations = 0;
    std::uint64_t _rounds = 0;
};

} // namespace optimus::accel

#endif // OPTIMUS_ACCEL_SSSP_ACCEL_HH

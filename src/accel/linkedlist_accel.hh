/**
 * @file
 * LinkedList (LL): walks a linked list of cache-line-sized nodes
 * scattered randomly through DRAM — one outstanding read at a time,
 * the worst case for DMA latency and the paper's stand-in for
 * irregular pointer-chasing applications. Fully implements the
 * preemption interface (the saved state is essentially just the next
 * node pointer, the paper's own example of minimal state).
 */

#ifndef OPTIMUS_ACCEL_LINKEDLIST_ACCEL_HH
#define OPTIMUS_ACCEL_LINKEDLIST_ACCEL_HH

#include <string>
#include <vector>

#include "accel/accelerator.hh"

namespace optimus::accel {

/** In-memory node layout: next pointer first, payload after. */
struct LinkedListNode
{
    std::uint64_t next; ///< GVA of the next node; 0 terminates
    std::uint64_t payload[7];
};
static_assert(sizeof(LinkedListNode) == 64);

/** Pointer-chasing latency microbenchmark. */
class LinkedlistAccel : public Accelerator
{
  public:
    static constexpr std::uint32_t kRegHead = 0;  ///< first node GVA
    static constexpr std::uint32_t kRegCount = 1; ///< nodes; 0 = all
    static constexpr std::uint32_t kRegChannel = 2;

    LinkedlistAccel(sim::EventQueue &eq,
                    const sim::PlatformParams &params, std::string name,
                    sim::Scope scope = {});

    /** Sum of the first payload word of every visited node. */
    std::uint64_t checksum() const { return _checksum; }

  protected:
    void onStart() override;
    void onSoftReset() override;
    void saveArchState(StateWriter &w) const override;
    void restoreArchState(StateReader &r) override;
    void onResumed() override;
    std::uint64_t archStateCapacity() const override { return 32; }

  private:
    void step();

    std::uint64_t _current = 0; ///< GVA of the node being fetched
    std::uint64_t _walked = 0;
    std::uint64_t _checksum = 0;
};

} // namespace optimus::accel

#endif // OPTIMUS_ACCEL_LINKEDLIST_ACCEL_HH

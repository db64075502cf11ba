/**
 * @file
 * MemBench (MB): issues random cache-line DMA reads and/or writes as
 * fast as the platform allows, saturating bandwidth and defeating
 * memory locality (worst case for the IOTLB). Fully implements the
 * preemption interface. Runs at 400 MHz like the original.
 */

#ifndef OPTIMUS_ACCEL_MEMBENCH_ACCEL_HH
#define OPTIMUS_ACCEL_MEMBENCH_ACCEL_HH

#include <string>
#include <vector>

#include "accel/accelerator.hh"
#include "sim/rng.hh"

namespace optimus::accel {

/** Random-access memory stress accelerator. */
class MembenchAccel : public Accelerator
{
  public:
    /** APP register indices. */
    static constexpr std::uint32_t kRegBase = 0;   ///< window base GVA
    static constexpr std::uint32_t kRegWset = 1;   ///< window bytes
    static constexpr std::uint32_t kRegMode = 2;   ///< 0 rd, 1 wr, 2 mix
    static constexpr std::uint32_t kRegSeed = 3;
    static constexpr std::uint32_t kRegTarget = 4; ///< ops; 0=endless
    static constexpr std::uint32_t kRegChannel = 5; ///< VChannel value
    /** Cycles between issued requests (per-instance throttle). */
    static constexpr std::uint32_t kRegGap = 6;

    enum Mode : std::uint64_t
    {
        kRead = 0,
        kWrite = 1,
        kMixed = 2,
    };

    MembenchAccel(sim::EventQueue &eq,
                  const sim::PlatformParams &params, std::string name,
                  sim::Scope scope = {});

    /** Completed operations (PROGRESS register equivalent). */
    std::uint64_t completedOps() const { return progress(); }

  protected:
    void onStart() override;
    void onSoftReset() override;
    void saveArchState(StateWriter &w) const override;
    void restoreArchState(StateReader &r) override;
    void onResumed() override;
    std::uint64_t archStateCapacity() const override { return 64; }

  private:
    void pump() final;
    void configure();

    sim::Rng _rng{1};
    std::uint64_t _issued = 0;
    std::uint64_t _completed = 0;
    sim::Tick _nextAllowed = 0;
};

} // namespace optimus::accel

#endif // OPTIMUS_ACCEL_MEMBENCH_ACCEL_HH

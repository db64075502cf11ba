/**
 * @file
 * The fault-injection plane: executes a FaultPlan against a live
 * hv::System.
 *
 * The injector implements the shell's DMA-response hook (dropped and
 * delayed CCI-P responses) and the IOMMU's translation-fault hook
 * (forced IO page faults), and schedules the plan's one-shot events
 * (accelerator hangs, wedged MMIO, IOTLB poisoning, wild DMAs,
 * watchdog arming) on simulation time.  All randomness comes from
 * per-directive sim::Rng streams seeded by the plan, so an identical
 * plan replays bit-identically.
 *
 * Zero-perturbation contract: an absent injector (or one built from
 * an empty plan) leaves every hook null, schedules nothing, and
 * therefore cannot change a single event in the simulation — result
 * fingerprints of fault-free runs stay byte-identical.
 */

#ifndef OPTIMUS_FAULT_FAULT_INJECTOR_HH
#define OPTIMUS_FAULT_FAULT_INJECTOR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "fault/fault_plan.hh"
#include "hv/system.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

namespace optimus::fault {

/** Drives a FaultPlan against one simulation context. */
class FaultInjector : public ccip::Shell::DmaFaultHook,
                      public iommu::Iommu::TranslationFaultHook
{
  public:
    FaultInjector(hv::System &sys, FaultPlan plan);
    ~FaultInjector() override;
    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    const FaultPlan &plan() const { return _plan; }

    // ----- ccip::Shell::DmaFaultHook -----
    Action onDmaResponse(const ccip::DmaTxn &txn,
                         sim::Tick *extra) override;

    // ----- iommu::Iommu::TranslationFaultHook -----
    bool forceFault(mem::Iova iova, bool is_write, std::uint16_t vm,
                    std::uint16_t proc) override;

    std::uint64_t injections() const { return _injections.value(); }
    std::uint64_t wildDmasCaught() const
    {
        return _wildCaught.value();
    }

  private:
    /** One armed rate rule with its private RNG stream. */
    struct Rule
    {
        FaultDirective d;
        std::uint32_t index = 0; ///< directive index in the plan
        sim::Rng rng;
        std::uint64_t used = 0;  ///< injections so far (count budget)
    };

    void scheduleOneShot(const FaultDirective &d, std::uint32_t index,
                         std::uint64_t fired);
    void fire(const FaultDirective &d, std::uint32_t index);
    void fireWildDma(const FaultDirective &d, std::uint32_t index);
    void noteInjection(const FaultDirective &d, std::uint32_t index,
                       std::uint64_t addr, std::uint16_t vm,
                       std::uint16_t proc);

    hv::System &_sys;
    FaultPlan _plan;
    std::vector<Rule> _dmaRules;   ///< kDrop / kDelay
    std::vector<Rule> _xlatRules;  ///< kIommuFault

    /** Lifetime guard for scheduled one-shots: events outliving the
     *  injector become no-ops instead of touching freed state. */
    std::shared_ptr<bool> _alive;

    sim::TraceBus *_trace = nullptr;
    std::uint32_t _comp = 0;

    sim::Counter _injections;
    sim::Counter _dmaDrops;
    sim::Counter _dmaDelays;
    sim::Counter _xlatFaults;
    sim::Counter _poisoned;
    sim::Counter _wildIssued;
    sim::Counter _wildCaught;
};

} // namespace optimus::fault

#endif // OPTIMUS_FAULT_FAULT_INJECTOR_HH

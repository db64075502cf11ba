/**
 * @file
 * Test helper: advance a System in fixed windows until a predicate
 * on its state holds.
 */

#ifndef OPTIMUS_TESTS_STEP_UNTIL_HH
#define OPTIMUS_TESTS_STEP_UNTIL_HH

#include <functional>

#include "hv/system.hh"

namespace optimus::test {

/** stepUntil's window: one UPI crossing at the HARP defaults. */
constexpr sim::Tick kStepWindow = 160 * sim::kTickNs;

/**
 * Run @p sys in windows of kStepWindow until @p pred holds. For state
 * that no completion announces (a progress count, a context switch, a
 * device status set without a guest waiting): a pump evaluates such a
 * predicate only at stop requests and, on a lone System, once the
 * queue drains. The call returns at most one window after the state
 * appears. @retval false the queue drained first.
 */
inline bool
stepUntil(hv::System &sys, const std::function<bool()> &pred)
{
    while (!pred()) {
        if (sys.eq.empty())
            return false;
        sys.run(sys.now() + kStepWindow);
    }
    return true;
}

} // namespace optimus::test

#endif // OPTIMUS_TESTS_STEP_UNTIL_HH

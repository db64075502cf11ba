#include "accel/membench_accel.hh"

#include <cstring>

#include "sim/logging.hh"

namespace optimus::accel {

MembenchAccel::MembenchAccel(sim::EventQueue &eq,
                             const sim::PlatformParams &params,
                             std::string name, sim::Scope scope)
    : Accelerator(eq, params, std::move(name), 400, scope)
{
    dma().setMaxOutstanding(256);
}

void
MembenchAccel::configure()
{
    dma().setChannel(
        static_cast<ccip::VChannel>(appReg(kRegChannel)));
}

void
MembenchAccel::onStart()
{
    _rng.reseed(appReg(kRegSeed) + 1);
    _issued = 0;
    _completed = 0;
    _nextAllowed = 0;
    configure();
    pump();
}

void
MembenchAccel::onSoftReset()
{
    _issued = 0;
    _completed = 0;
    _nextAllowed = 0;
}

void
MembenchAccel::pump()
{
    if (!running())
        return;

    const std::uint64_t target = appReg(kRegTarget);
    const std::uint64_t wset = appReg(kRegWset);
    const std::uint64_t lines = wset / sim::kCacheLineBytes;
    OPTIMUS_ASSERT(lines > 0, "MemBench working set too small");

    // A resumed context may already have met its target: the final
    // completion can land during a preempt drain, where the kSaving
    // status suppresses finish(). Close the job out here instead of
    // idling in kRunning with nothing scheduled.
    if (target != 0 && _completed >= target) {
        finish(_completed);
        return;
    }

    while ((target == 0 || _issued < target) &&
           dma().inFlight() < dma().maxOutstanding()) {
        if (now() < _nextAllowed) {
            armPump(_nextAllowed);
            return;
        }

        mem::Gva addr = mem::Gva(appReg(kRegBase)) +
                        _rng.below(lines) * sim::kCacheLineBytes;
        auto mode = static_cast<Mode>(appReg(kRegMode));
        bool is_write =
            mode == kWrite || (mode == kMixed && (_issued & 1));

        auto on_done = [this](ccip::DmaTxn &t) {
            if (t.error) {
                fail();
                return;
            }
            ++_completed;
            bumpProgress();
            const std::uint64_t tgt = appReg(kRegTarget);
            // finish() also latches completion during a preempt drain
            // (kSaving -> _doneDuringSave); only an errored pipeline
            // must not complete.
            if (tgt != 0 && _completed >= tgt &&
                (running() || status() == Status::kSaving)) {
                finish(_completed);
                return;
            }
            pump();
        };

        if (is_write) {
            std::uint8_t payload[sim::kCacheLineBytes];
            std::memset(payload, static_cast<int>(_issued & 0xff),
                        sizeof(payload));
            dma().write(addr, payload, sim::kCacheLineBytes, on_done);
        } else {
            dma().read(addr, sim::kCacheLineBytes, on_done);
        }
        ++_issued;

        std::uint64_t gap = appReg(kRegGap);
        if (gap > 0) {
            _nextAllowed = now() + cyclesToTicks(gap);
        }
    }
}

void
MembenchAccel::saveArchState(StateWriter &w) const
{
    // The minimal state: the RNG and the operation counters.
    for (std::uint64_t word : _rng.state())
        w.u64(word);
    w.u64(_issued);
    w.u64(_completed);
}

void
MembenchAccel::restoreArchState(StateReader &r)
{
    r.label("MemBench");
    std::array<std::uint64_t, 4> rng_state{};
    for (std::uint64_t &word : rng_state)
        word = r.u64();
    _rng.setState(rng_state);
    r.u64(); // issued
    _completed = r.u64();
    // In-flight requests were drained before the save; account for
    // them as completed work.
    _issued = _completed;
    _nextAllowed = 0;
    cancelPump();
}

void
MembenchAccel::onResumed()
{
    configure();
    pump();
}

} // namespace optimus::accel

#include "accel/signal_accels.hh"

#include <algorithm>
#include <cstring>

namespace optimus::accel {

// ------------------------------------------------------------------ FIR

FirAccel::FirAccel(sim::EventQueue &eq,
                   const sim::PlatformParams &params, std::string name,
                   sim::Scope scope)
    : StreamingAccelerator(eq, params, std::move(name), 200,
                           Tuning{64, 11}, scope),
      _fir(algo::Fir16::defaultTaps())
{
}

void
FirAccel::streamBegin()
{
    _history.fill(0);
}

void
FirAccel::consumeLine(std::uint64_t offset, const std::uint8_t *data,
                      std::uint32_t bytes)
{
    std::int32_t out[16] = {};
    std::uint32_t samples = bytes / 4;
    for (std::uint32_t i = 0; i < samples; ++i) {
        std::int32_t x;
        std::memcpy(&x, data + i * 4, 4);
        // Shift the delay line and insert the new sample.
        for (std::size_t k = algo::Fir16::kTaps - 1; k > 0; --k)
            _history[k] = _history[k - 1];
        _history[0] = x;
        out[i] = _fir.step(_history.data());
    }
    emit(dst() + offset, out, samples * 4);
}

void
FirAccel::saveTransformState(StateWriter &w) const
{
    w.bytes(_history.data(), sizeof(_history));
}

void
FirAccel::restoreTransformState(StateReader &r)
{
    r.label("FIR");
    r.bytes(_history.data(), sizeof(_history));
}

// ------------------------------------------------------------------ GRN

GrnAccel::GrnAccel(sim::EventQueue &eq,
                   const sim::PlatformParams &params, std::string name,
                   sim::Scope scope)
    : Accelerator(eq, params, std::move(name), 200, scope)
{
    dma().setMaxOutstanding(24);
}

void
GrnAccel::onStart()
{
    _source = algo::GaussianSource(appReg(kRegSeed));
    _generated = 0;
    _pendingWrites = 0;
    pump();
}

void
GrnAccel::onSoftReset()
{
    _generated = 0;
    _pendingWrites = 0;
}

void
GrnAccel::pump()
{
    if (!running())
        return;

    const std::uint64_t count = appReg(kRegCount);
    if (_generated >= count) {
        if (_pendingWrites == 0)
            finish(_generated);
        return;
    }
    if (dma().inFlight() >= dma().maxOutstanding()) {
        return; // re-pumped on write completion
    }
    if (now() < _nextAllowed) {
        // Pipeline initiation interval not yet elapsed.
        armPump(_nextAllowed);
        return;
    }

    double line[kDoublesPerLine];
    std::uint64_t n = std::min<std::uint64_t>(kDoublesPerLine,
                                              count - _generated);
    for (std::uint64_t i = 0; i < n; ++i)
        line[i] = _source.next();

    mem::Gva addr =
        mem::Gva(appReg(kRegDst)) + _generated * sizeof(double);
    ++_pendingWrites;
    dma().write(addr, line,
                static_cast<std::uint32_t>(n * sizeof(double)),
                [this](ccip::DmaTxn &t) {
                    if (t.error) {
                        fail();
                        return;
                    }
                    --_pendingWrites;
                    pump();
                });
    _generated += n;
    bumpProgress();
    _nextAllowed = now() + cyclesToTicks(kLineGapCycles);
    scheduleGuarded(kLineGapCycles, [this]() { pump(); });
}

void
GrnAccel::saveArchState(StateWriter &w) const
{
    const algo::GaussianSource::State s = _source.state();
    for (std::uint64_t word : s.rng)
        w.u64(word);
    w.u64(s.hasSpare ? 1 : 0);
    w.f64(s.spare);
    w.u64(_generated);
}

void
GrnAccel::restoreArchState(StateReader &r)
{
    r.label("GRN");
    algo::GaussianSource::State s{};
    for (std::uint64_t &word : s.rng)
        word = r.u64();
    s.hasSpare = r.below(2, "spare-sample flag") != 0;
    s.spare = r.f64();
    _source.setState(s);
    _generated = r.u64();
    _pendingWrites = 0;
}

void
GrnAccel::onResumed()
{
    pump();
}

// ------------------------------------------------------------------ RSD

RsdAccel::RsdAccel(sim::EventQueue &eq,
                   const sim::PlatformParams &params, std::string name,
                   sim::Scope scope)
    : StreamingAccelerator(eq, params, std::move(name), 200,
                           Tuning{64, 11}, scope)
{
}

void
RsdAccel::streamBegin()
{
    _slot.fill(0);
    _slotFill = 0;
    _slotIndex = 0;
    _corrected = 0;
    _failures = 0;
}

void
RsdAccel::consumeLine(std::uint64_t offset, const std::uint8_t *data,
                      std::uint32_t bytes)
{
    (void)offset;
    std::memcpy(_slot.data() + _slotFill, data, bytes);
    _slotFill += bytes;
    if (_slotFill < kSlotBytes)
        return;

    std::array<std::uint8_t, kSlotBytes> out{};
    int n = _rs.decode(_slot.data());
    if (n >= 0) {
        _corrected += static_cast<std::uint64_t>(n);
        std::memcpy(out.data(), _slot.data(),
                    algo::ReedSolomon::kK);
    } else {
        ++_failures;
    }
    emit(dst() + _slotIndex * kSlotBytes, out.data(), 64);
    emit(dst() + _slotIndex * kSlotBytes + 64, out.data() + 64, 64);
    emit(dst() + _slotIndex * kSlotBytes + 128, out.data() + 128, 64);
    emit(dst() + _slotIndex * kSlotBytes + 192, out.data() + 192, 64);

    ++_slotIndex;
    _slotFill = 0;
}

void
RsdAccel::saveTransformState(StateWriter &w) const
{
    w.bytes(_slot.data(), kSlotBytes);
    w.u64(_slotFill);
    w.u64(_slotIndex);
    w.u64(_corrected);
    w.u64(_failures);
}

void
RsdAccel::restoreTransformState(StateReader &r)
{
    r.label("RSD");
    r.bytes(_slot.data(), kSlotBytes);
    // consumeLine() appends whole lines: the fill is below the slot
    // and line-aligned, so the next line fits.
    _slotFill = r.below(kSlotBytes, "slot fill");
    r.check(_slotFill % sim::kCacheLineBytes == 0, "slot fill",
            _slotFill);
    _slotIndex = r.u64();
    _corrected = r.u64();
    _failures = r.u64();
}

// ------------------------------------------------------------------- SW

SwAccel::SwAccel(sim::EventQueue &eq,
                 const sim::PlatformParams &params, std::string name,
                 sim::Scope scope)
    : Accelerator(eq, params, std::move(name), 100, scope)
{
    dma().setMaxOutstanding(16);
}

void
SwAccel::onStart()
{
    for (std::uint32_t i = 0; i < 2; ++i) {
        _seq[i].assign(appReg(i == 0 ? kRegLenA : kRegLenB), 0);
        _loaded[i] = 0;
        _done[i] = _seq[i].empty();
    }
    load(0);
    load(1);
    maybeCompute();
}

void
SwAccel::onSoftReset()
{
    _seq[0].clear();
    _seq[1].clear();
    _done[0] = _done[1] = false;
    _loaded[0] = _loaded[1] = 0;
}

void
SwAccel::load(std::uint32_t which)
{
    if (_done[which])
        return;
    mem::Gva base(appReg(which == 0 ? kRegSeqA : kRegSeqB));
    std::uint64_t len = _seq[which].size();
    for (std::uint64_t off = 0; off < len;
         off += sim::kCacheLineBytes) {
        auto bytes = static_cast<std::uint32_t>(std::min<
            std::uint64_t>(sim::kCacheLineBytes, len - off));
        dma().read(base + off, bytes,
                   [this, which, off, bytes](ccip::DmaTxn &t) {
                       if (t.error) {
                           fail();
                           return;
                       }
                       std::memcpy(_seq[which].data() + off,
                                   t.data.data(), bytes);
                       _loaded[which] += bytes;
                       if (_loaded[which] == _seq[which].size()) {
                           _done[which] = true;
                           maybeCompute();
                       }
                   });
    }
}

void
SwAccel::maybeCompute()
{
    if (!running() || !_done[0] || !_done[1])
        return;

    // Systolic wavefront: one anti-diagonal per cycle.
    std::uint64_t cycles = _seq[0].size() + _seq[1].size();
    scheduleGuarded(cycles, [this]() {
        if (!running())
            return;
        std::string_view a(
            reinterpret_cast<const char *>(_seq[0].data()),
            _seq[0].size());
        std::string_view b(
            reinterpret_cast<const char *>(_seq[1].data()),
            _seq[1].size());
        std::int32_t score = algo::smithWatermanScore(a, b);
        setProgress(_seq[0].size() + _seq[1].size());
        finish(static_cast<std::uint64_t>(score));
    });
}

} // namespace optimus::accel

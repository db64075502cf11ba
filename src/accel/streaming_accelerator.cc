#include "accel/streaming_accelerator.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace optimus::accel {

StreamingAccelerator::StreamingAccelerator(
    sim::EventQueue &eq, const sim::PlatformParams &params,
    std::string name, std::uint64_t freq_mhz, Tuning tuning,
    sim::Scope scope)
    : Accelerator(eq, params, std::move(name), freq_mhz, scope),
      _tuning(tuning)
{
    dma().setMaxOutstanding(_tuning.window);
}

void
StreamingAccelerator::onStart()
{
    _nextAllowed = 0;
    cancelPump();
    _nextReadOff = 0;
    _consumedOff = 0;
    _pendingWrites = 0;
    _inputDone = streamLen() == 0;
    _endCalled = false;
    _reorder.clear();
    streamBegin();
    if (_inputDone) {
        maybeFinish();
    } else {
        pump();
    }
}

void
StreamingAccelerator::onSoftReset()
{
    _nextReadOff = 0;
    _consumedOff = 0;
    _pendingWrites = 0;
    _inputDone = false;
    _endCalled = false;
    _reorder.clear();
}

void
StreamingAccelerator::pump()
{
    if (!running() || _inputDone)
        return;

    const std::uint64_t len = streamLen();
    while (_nextReadOff < len && dma().inFlight() < _tuning.window) {
        if (now() < _nextAllowed) {
            // The pipeline's initiation interval has not elapsed;
            // one wakeup is armed at the allowed tick.
            armPump(_nextAllowed);
            return;
        }
        std::uint64_t off = _nextReadOff;
        auto bytes = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(sim::kCacheLineBytes, len - off));
        _nextReadOff += bytes;
        dma().read(src() + off, bytes,
                   [this, off](ccip::DmaTxn &t) {
                       onReadLine(off, t);
                   });
        if (_tuning.readGapCycles > 1) {
            // Compute-paced: the next read waits out the initiation
            // interval even if issued from a response handler.
            _nextAllowed = now() + cyclesToTicks(_tuning.readGapCycles);
        }
    }
    if (_nextReadOff >= len)
        _inputDone = true;
}

void
StreamingAccelerator::onReadLine(std::uint64_t offset,
                                 ccip::DmaTxn &txn)
{
    if (txn.error) {
        fail();
        return;
    }
    _reorder.emplace(offset,
                     std::vector<std::uint8_t>(
                         txn.data.begin(),
                         txn.data.begin() + txn.bytes));
    drainReorderBuffer();
    pump();
    maybeFinish();
}

void
StreamingAccelerator::drainReorderBuffer()
{
    while (!_reorder.empty() &&
           _reorder.begin()->first == _consumedOff) {
        auto it = _reorder.begin();
        const auto &line = it->second;
        consumeLine(it->first, line.data(),
                    static_cast<std::uint32_t>(line.size()));
        _consumedOff += line.size();
        bumpProgress();
        _reorder.erase(it);
    }
}

void
StreamingAccelerator::emit(mem::Gva gva, const void *data,
                           std::uint32_t bytes)
{
    ++_pendingWrites;
    dma().write(gva, data, bytes, [this](ccip::DmaTxn &t) {
        if (t.error) {
            fail();
            return;
        }
        OPTIMUS_ASSERT(_pendingWrites > 0, "stray write completion");
        --_pendingWrites;
        pump();
        maybeFinish();
    });
}

void
StreamingAccelerator::maybeFinish()
{
    if (status() != Status::kRunning &&
        status() != Status::kSaving) {
        return;
    }
    if (!_inputDone || !_reorder.empty() ||
        _consumedOff < streamLen()) {
        return;
    }
    if (!_endCalled) {
        _endCalled = true;
        streamEnd();
    }
    if (_pendingWrites == 0)
        finish(resultValue());
}

void
StreamingAccelerator::onResumed()
{
    pump();
    maybeFinish();
}

void
StreamingAccelerator::saveArchState(StateWriter &w) const
{
    // At save time the port has drained: everything issued has been
    // consumed, so the stream position is exactly _consumedOff.
    w.u64(_consumedOff);
    w.framed([this](StateWriter &t) { saveTransformState(t); });
}

void
StreamingAccelerator::restoreArchState(StateReader &r)
{
    const std::uint64_t pos = r.u64();
    StateReader transform = r.framed();

    _consumedOff = pos;
    _nextReadOff = pos;
    _pendingWrites = 0;
    _inputDone = pos >= streamLen();
    _endCalled = false;
    _reorder.clear();
    restoreTransformState(transform);
}

std::uint64_t
StreamingAccelerator::archStateCapacity() const
{
    return 16 + transformStateCapacity();
}

} // namespace optimus::accel

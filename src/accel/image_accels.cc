#include "accel/image_accels.hh"

#include <cstring>

#include "sim/logging.hh"

namespace optimus::accel {

// ------------------------------------------------------------------ GRS

GrsAccel::GrsAccel(sim::EventQueue &eq,
                   const sim::PlatformParams &params, std::string name,
                   sim::Scope scope)
    : StreamingAccelerator(eq, params, std::move(name), 200,
                           Tuning{64, 4}, scope)
{
}

void
GrsAccel::streamBegin()
{
    _outLine.fill(0);
    _outFill = 0;
    _outOffset = 0;
}

void
GrsAccel::consumeLine(std::uint64_t offset, const std::uint8_t *data,
                      std::uint32_t bytes)
{
    (void)offset;
    // 16 RGBX pixels per input line -> 16 luma bytes.
    for (std::uint32_t px = 0; px + 4 <= bytes; px += 4) {
        _outLine[_outFill++] = algo::rgbxLuma(data + px);
        if (_outFill == sim::kCacheLineBytes)
            flushOutLine();
    }
}

void
GrsAccel::flushOutLine()
{
    emit(dst() + _outOffset, _outLine.data(),
         static_cast<std::uint32_t>(_outFill));
    _outOffset += _outFill;
    _outFill = 0;
}

void
GrsAccel::streamEnd()
{
    if (_outFill > 0)
        flushOutLine();
}

void
GrsAccel::saveTransformState(StateWriter &w) const
{
    w.bytes(_outLine.data(), sim::kCacheLineBytes);
    w.u64(_outFill);
    w.u64(_outOffset);
}

void
GrsAccel::restoreTransformState(StateReader &r)
{
    r.label("GRS");
    r.bytes(_outLine.data(), sim::kCacheLineBytes);
    // A full line is flushed as it fills: the fill is always short.
    _outFill = r.below(sim::kCacheLineBytes, "output-line fill");
    _outOffset = r.u64();
}

// ---------------------------------------------------------- row filters

RowFilterAccel::RowFilterAccel(sim::EventQueue &eq,
                               const sim::PlatformParams &params,
                               std::string name, const char *app,
                               std::uint32_t read_gap_cycles,
                               sim::Scope scope)
    : StreamingAccelerator(eq, params, std::move(name), 200,
                           Tuning{64, read_gap_cycles}, scope),
      _app(app)
{
}

void
RowFilterAccel::streamBegin()
{
    OPTIMUS_ASSERT(widthValid(),
                   "row filter width must be a nonzero multiple of "
                   "the line size");
    OPTIMUS_ASSERT(streamLen() % width() == 0,
                   "image length must be a whole number of rows");
    _rowPrev.clear();
    _rowPrev2.clear();
    _rowCur.clear();
    _rowCur.reserve(width());
    _rowsCompleted = 0;
}

void
RowFilterAccel::consumeLine(std::uint64_t offset,
                            const std::uint8_t *data,
                            std::uint32_t bytes)
{
    (void)offset;
    _rowCur.insert(_rowCur.end(), data, data + bytes);
    if (_rowCur.size() >= width())
        rowCompleted();
}

void
RowFilterAccel::rowCompleted()
{
    ++_rowsCompleted;
    if (_rowsCompleted >= 2) {
        // Row r just completed; output row r-1 uses rows r-2..r
        // (the topmost row clamps to itself).
        const std::vector<std::uint8_t> &above =
            _rowsCompleted == 2 ? _rowPrev : _rowPrev2;
        emitFilteredRow(above, _rowPrev, _rowCur, _rowsCompleted - 2);
    }
    _rowPrev2 = std::move(_rowPrev);
    _rowPrev = std::move(_rowCur);
    _rowCur.clear();
    _rowCur.reserve(width());
}

void
RowFilterAccel::streamEnd()
{
    // The bottom row clamps downward onto itself.
    if (height() == 1) {
        emitFilteredRow(_rowPrev, _rowPrev, _rowPrev, 0);
    } else if (_rowsCompleted >= 2) {
        emitFilteredRow(_rowPrev2, _rowPrev, _rowPrev,
                        _rowsCompleted - 1);
    }
}

void
RowFilterAccel::emitFilteredRow(const std::vector<std::uint8_t> &above,
                                const std::vector<std::uint8_t> &center,
                                const std::vector<std::uint8_t> &below,
                                std::uint64_t out_row)
{
    const std::uint64_t w = width();
    algo::GrayImage window;
    window.width = static_cast<std::uint32_t>(w);
    window.height = 3;
    window.pixels.resize(3 * w);
    std::memcpy(window.pixels.data(), above.data(), w);
    std::memcpy(window.pixels.data() + w, center.data(), w);
    std::memcpy(window.pixels.data() + 2 * w, below.data(), w);

    std::vector<std::uint8_t> out(w);
    for (std::uint64_t x = 0; x < w; ++x)
        out[x] = filterPixel(window, static_cast<std::int64_t>(x));

    for (std::uint64_t off = 0; off < w; off += sim::kCacheLineBytes) {
        emit(dst() + out_row * w + off, out.data() + off,
             static_cast<std::uint32_t>(sim::kCacheLineBytes));
    }
}

void
RowFilterAccel::saveTransformState(StateWriter &w) const
{
    // Layout: [rowsCompleted][curFill][prev row][prev2 row][cur row],
    // each row in a kMaxWidth slot.
    w.u64(_rowsCompleted);
    w.u64(_rowCur.size());
    w.bytes(_rowPrev.data(), _rowPrev.size(), kMaxWidth);
    w.bytes(_rowPrev2.data(), _rowPrev2.size(), kMaxWidth);
    w.bytes(_rowCur.data(), _rowCur.size(), kMaxWidth);
}

void
RowFilterAccel::restoreTransformState(StateReader &r)
{
    r.label(_app);
    // WIDTH is the register as replayed at resume, which the guest
    // may have rewritten while descheduled.
    const std::uint64_t w = width();
    r.check(widthValid(), "width", w);
    _rowsCompleted = r.u64();
    // consumeLine() completes a row as it fills: the fill is short.
    const std::uint64_t cur_fill = r.below(w, "current-row fill");

    // Rows not yet filled come back as the slots' zeros, so every
    // window row streamEnd() reads holds WIDTH bytes.
    _rowPrev.resize(w);
    r.bytes(_rowPrev.data(), w, kMaxWidth);
    _rowPrev2.resize(w);
    r.bytes(_rowPrev2.data(), w, kMaxWidth);
    _rowCur.resize(cur_fill);
    r.bytes(_rowCur.data(), cur_fill, kMaxWidth);
}

GauAccel::GauAccel(sim::EventQueue &eq,
                   const sim::PlatformParams &params, std::string name,
                   sim::Scope scope)
    : RowFilterAccel(eq, params, std::move(name), "GAU", 6, scope)
{
}

SblAccel::SblAccel(sim::EventQueue &eq,
                   const sim::PlatformParams &params, std::string name,
                   sim::Scope scope)
    : RowFilterAccel(eq, params, std::move(name), "SBL", 6, scope)
{
}

} // namespace optimus::accel

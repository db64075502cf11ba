#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "sim/logging.hh"

namespace optimus::sim {

void
EventQueue::scheduleSlow(Tick when, Callback cb)
{
    if (when >= _ringLimit && _size == 0) {
        // Queue idle: slide the (empty) window up before routing, so
        // a lone periodic event never ping-pongs through overflow.
        _ringLimit = windowBoundaryAbove(_now);
        _farLimit = _ringLimit + kFarWindowTicks;
    }

    std::uint64_t seq = _nextSeq++;
    if (when < _ringLimit) {
        std::uint32_t s = slotOf(when);
        if (s == _activeSlot) {
            // The slot is mid-drain and ordered past the cursor; keep
            // it that way so the cursor stays the (when, seq) min.
            // The entry appends in place; only its 24-byte key is
            // inserted at the ordered position.
            std::vector<Event> &b = _buckets[s];
            OrderKey key{when, seq,
                         static_cast<std::uint32_t>(b.size())};
            b.emplace_back(when, seq, std::move(cb));
            auto pos = std::upper_bound(
                _activeOrder.begin() + _activeHead, _activeOrder.end(),
                key);
            _activeOrder.insert(pos, key);
        } else {
            pushToSlot(s, when, seq, std::move(cb));
        }
    } else if (when < _farLimit) {
        std::uint32_t f = farSlotOf(when);
        std::vector<Event> &fb = _farBuckets[f];
        if (fb.empty())
            _farOccupied[f >> 6] |= 1ULL << (f & 63);
        fb.emplace_back(when, seq, std::move(cb));
        ++_farCount;
    } else {
        std::uint32_t idx;
        if (!_overflowFree.empty()) {
            idx = _overflowFree.back();
            _overflowFree.pop_back();
            Event &e = _overflowPool[idx];
            e.when = when;
            e.seq = seq;
            e.cb = std::move(cb);
        } else {
            idx = static_cast<std::uint32_t>(_overflowPool.size());
            _overflowPool.emplace_back(when, seq, std::move(cb));
        }
        _overflow.push_back(OrderKey{when, seq, idx});
        std::push_heap(_overflow.begin(), _overflow.end(), Later{});
    }
    ++_size;
}

Tick
EventQueue::nextRingTick() const
{
    if (ringEmpty())
        return kTickForever;
    if (_activeSlot != kNoSlot)
        return _activeOrder[_activeHead].when;
    std::uint32_t s = _occupied.findFrom(slotOf(_now));
    OPTIMUS_ASSERT(s != Occupancy::kNone,
                   "ring count/occupancy mismatch");
    const std::vector<Event> &b = _buckets[s];
    Tick min = b.front().when;
    for (std::size_t i = 1; i < b.size(); ++i)
        min = std::min(min, b[i].when);
    return min;
}

Tick
EventQueue::farMinTick() const
{
    // Far slots cover disjoint, increasing tick ranges starting at
    // _ringLimit, so the first occupied slot in circular order from
    // there holds the earliest far event. Scan a word at a time: the
    // start word from the start bit up, the other words whole, and
    // last the start word's bits below the start (the circle's tail).
    constexpr std::uint32_t kWords = kFarSlots / 64;
    const std::uint32_t start = farSlotOf(_ringLimit);
    const std::uint32_t w0 = start >> 6;
    const std::uint64_t from_start = ~0ULL << (start & 63);
    for (std::uint32_t k = 0; k <= kWords; ++k) {
        const std::uint32_t w = (w0 + k) % kWords;
        std::uint64_t bits = _farOccupied[w];
        if (k == 0)
            bits &= from_start;
        else if (k == kWords)
            bits &= ~from_start;
        if (bits == 0)
            continue;
        const std::vector<Event> &fb =
            _farBuckets[(w << 6) + std::countr_zero(bits)];
        Tick min = fb.front().when;
        for (std::size_t i = 1; i < fb.size(); ++i)
            min = std::min(min, fb[i].when);
        return min;
    }
    OPTIMUS_ASSERT(false, "far count/occupancy mismatch");
    return kTickForever;
}

void
EventQueue::advanceWindow()
{
    // Called with _now >= _ringLimit (and _now at the pending
    // minimum, so everything scattered below lands at or after it).
    Tick newLimit = windowBoundaryAbove(_now);
    if (_farCount != 0) {
        // Any far event bounds _now below _farLimit, so this walks at
        // most kFarSlots boundaries.
        for (Tick b = _ringLimit; b < newLimit; b += kWindowTicks) {
            std::uint32_t f = farSlotOf(b);
            std::uint64_t bit = 1ULL << (f & 63);
            if (!(_farOccupied[f >> 6] & bit))
                continue;
            std::vector<Event> &fb = _farBuckets[f];
            for (Event &ev : fb)
                pushToSlot(slotOf(ev.when), ev.when, ev.seq,
                           std::move(ev.cb));
            _farCount -= fb.size();
            fb.clear();
            _farOccupied[f >> 6] &= ~bit;
        }
    }
    _ringLimit = newLimit;
    _farLimit = newLimit + kFarWindowTicks;
    // Admit heap events the far window now covers. After a long idle
    // jump the heap head may even land inside the near window.
    while (!_overflow.empty() && _overflow.front().when < _farLimit) {
        std::pop_heap(_overflow.begin(), _overflow.end(), Later{});
        std::uint32_t idx = _overflow.back().idx;
        _overflow.pop_back();
        Event &ev = _overflowPool[idx];
        if (ev.when < _ringLimit) {
            pushToSlot(slotOf(ev.when), ev.when, ev.seq,
                       std::move(ev.cb));
        } else {
            std::uint32_t f = farSlotOf(ev.when);
            std::vector<Event> &fb = _farBuckets[f];
            if (fb.empty())
                _farOccupied[f >> 6] |= 1ULL << (f & 63);
            fb.push_back(std::move(ev));
            ++_farCount;
        }
        _overflowFree.push_back(idx);
    }
}

void
EventQueue::activateSlot(std::uint32_t s)
{
    std::vector<Event> &b = _buckets[s];
    auto n = static_cast<std::uint32_t>(b.size());
    _activeOrder.resize(n);
    for (std::uint32_t i = 0; i < n; ++i)
        _activeOrder[i] = OrderKey{b[i].when, b[i].seq, i};
    if (!_slotInOrder[s])
        std::sort(_activeOrder.begin(), _activeOrder.end());
    _activeSlot = s;
    _activeHead = 0;
}

void
EventQueue::deactivate()
{
    std::vector<Event> &b = _buckets[_activeSlot];
    if (_activeHead != 0) {
        // Partially drained: keep only the undispatched tail, packed
        // in (when, seq) order so the bucket is a plain ordered slot
        // again. Entries before the cursor hold moved-from callbacks
        // and are dropped.
        std::vector<Event> keep;
        keep.reserve(_activeOrder.size() - _activeHead);
        for (std::size_t i = _activeHead; i < _activeOrder.size(); ++i)
            keep.push_back(std::move(b[_activeOrder[i].idx]));
        b.swap(keep);
        _slotInOrder[_activeSlot] = 1;
    }
    OPTIMUS_ASSERT(!b.empty(), "deactivating a drained slot");
    _activeSlot = kNoSlot;
    _activeHead = 0;
    _activeOrder.clear();
}

void
EventQueue::dispatch(Tick t)
{
    _now = t;
    if (t >= _ringLimit)
        advanceWindow();
    if (_activeSlot == kNoSlot) {
        std::uint32_t s = _occupied.findFrom(slotOf(t));
        OPTIMUS_ASSERT(s != Occupancy::kNone,
                       "dispatch into an empty ring");
        activateSlot(s);
    }

    dispatchActive(t);
}

void
EventQueue::dispatchActive(Tick t)
{
    _now = t;
    std::vector<Event> &b = _buckets[_activeSlot];
    Callback cb = std::move(b[_activeOrder[_activeHead].idx].cb);
    ++_activeHead;
    --_size;
    ++_executed;
    if (_activeHead == _activeOrder.size()) {
        // Drained: release the slot before running the callback so a
        // same-slot reschedule starts a fresh FIFO behind us.
        b.clear();
        _activeOrder.clear();
        _occupied.clear(_activeSlot);
        _activeSlot = kNoSlot;
        _activeHead = 0;
    }
    // Single indirect call: run and destroy the callback together.
    cb.consume();
}

bool
EventQueue::runOne()
{
    Tick t = nextEventTick();
    if (t == kTickForever)
        return false;
    dispatch(t);
    return true;
}

std::uint64_t
EventQueue::runUntil(Tick limit)
{
    std::uint64_t n = 0;
    for (;;) {
        // Fast path: while a slot is mid-drain its cursor is the
        // queue-wide minimum (an earlier event could only exist at a
        // tick >= _now inside the active slot's span, and such an
        // insert goes through the ordered active-slot path). Drain it
        // without re-deriving the next slot per event.
        while (_activeSlot != kNoSlot) {
            Tick t = _activeOrder[_activeHead].when;
            if (t > limit) {
                // Time stops at the limit, which may be below this
                // slot's span, and the caller may then legally
                // schedule ticks earlier than the cursor into other
                // slots. Release the activation so those inserts are
                // found first on the next run.
                deactivate();
                if (_now < limit)
                    _now = limit;
                return n;
            }
            dispatchActive(t);
            ++n;
        }
        // Slot transition: find and order the next slot directly
        // (activation is harmless if its events turn out to be past
        // the limit), rather than min-scanning the bucket once for
        // the peek and again for the dispatch.
        if (!ringEmpty()) {
            activateSlot(_occupied.findFrom(slotOf(_now)));
            continue;
        }
        Tick t = _farCount != 0
                     ? farMinTick()
                     : (_overflow.empty() ? kTickForever
                                          : _overflow.front().when);
        if (t == kTickForever || t > limit)
            break;
        _now = t;
        advanceWindow();
        activateSlot(_occupied.findFrom(slotOf(t)));
    }
    if (_now < limit)
        _now = limit;
    return n;
}

std::uint64_t
EventQueue::runAll(std::uint64_t max_events)
{
    std::uint64_t n = 0;
    while (n < max_events && runOne())
        ++n;
    return n;
}

void
EventQueue::clearPending()
{
    if (_activeSlot != kNoSlot)
        deactivate();
    for (std::uint32_t s = 0; s < kRingSlots; ++s) {
        if (!_buckets[s].empty()) {
            _buckets[s].clear();
            _occupied.clear(s);
        }
        _slotInOrder[s] = 1;
    }
    for (std::uint32_t f = 0; f < kFarSlots; ++f)
        _farBuckets[f].clear();
    _farOccupied.fill(0);
    _farCount = 0;
    _overflow.clear();
    _overflowPool.clear();
    _overflowFree.clear();
    _outbox.clear();
    _size = 0;
}

} // namespace optimus::sim

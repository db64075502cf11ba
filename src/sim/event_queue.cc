#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "sim/logging.hh"

namespace optimus::sim {

void
EventQueue::CallbackPool::grow()
{
    _chunks.push_back(std::make_unique<Callback[]>(kChunkSlots));
}

void
EventQueue::scheduleSlow(Tick when, std::uint32_t cb)
{
    if (when >= _ringLimit && _size == 0) {
        // Queue idle: slide the (empty) window up before routing, so
        // a lone periodic event never ping-pongs through overflow.
        _ringLimit = windowBoundaryAbove(_now);
        _farLimit = _ringLimit + kFarWindowTicks;
    }

    Key k{when, _nextSeq++, cb};
    if (when < _ringLimit) {
        std::uint32_t s = slotOf(when);
        if (s == _activeSlot) {
            // The slot is mid-drain and sorted past the cursor; keep
            // it that way so the cursor stays the (when, seq) min.
            std::vector<Key> &b = _buckets[s];
            b.insert(std::upper_bound(b.begin() + _activeHead, b.end(),
                                      k),
                     k);
        } else {
            pushToSlot(s, k);
        }
    } else if (when < _farLimit) {
        pushToFar(k);
    } else {
        _overflow.push_back(k);
        std::push_heap(_overflow.begin(), _overflow.end(), Later{});
    }
    ++_size;
}

void
EventQueue::pushToFar(const Key &k)
{
    std::uint32_t f = farSlotOf(k.when);
    std::vector<Key> &fb = _farBuckets[f];
    if (fb.empty())
        _farOccupied[f >> 6] |= 1ULL << (f & 63);
    fb.push_back(k);
    ++_farCount;
}

Tick
EventQueue::nextRingTick() const
{
    if (ringEmpty())
        return kTickForever;
    if (_activeSlot != kNoSlot)
        return _buckets[_activeSlot][_activeHead].when;
    std::uint32_t s = _occupied.findFrom(slotOf(_now));
    OPTIMUS_ASSERT(s != Occupancy::kNone,
                   "ring count/occupancy mismatch");
    const std::vector<Key> &b = _buckets[s];
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
        const std::vector<Key> &fb =
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
            std::vector<Key> &fb = _farBuckets[f];
            for (const Key &k : fb)
                pushToSlot(slotOf(k.when), k);
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
        Key k = _overflow.back();
        _overflow.pop_back();
        if (k.when < _ringLimit)
            pushToSlot(slotOf(k.when), k);
        else
            pushToFar(k);
    }
}

void
EventQueue::activateSlot(std::uint32_t s)
{
    if (!_slotInOrder[s]) {
        std::vector<Key> &b = _buckets[s];
        std::sort(b.begin(), b.end());
        _slotInOrder[s] = 1;
    }
    _activeSlot = s;
    _activeHead = 0;
}

void
EventQueue::deactivate()
{
    // The undispatched tail is already in (when, seq) order; the
    // dispatched prefix names closures that have run and is dropped.
    std::vector<Key> &b = _buckets[_activeSlot];
    b.erase(b.begin(), b.begin() + _activeHead);
    OPTIMUS_ASSERT(!b.empty(), "deactivating a drained slot");
    _activeSlot = kNoSlot;
    _activeHead = 0;
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
    std::vector<Key> &b = _buckets[_activeSlot];
    const std::uint32_t cb = b[_activeHead].cb;
    ++_activeHead;
    --_size;
    ++_executed;
    if (_activeHead == b.size()) {
        // Drained: release the slot before running the callback so a
        // same-slot reschedule starts a fresh FIFO behind us.
        b.clear();
        _occupied.clear(_activeSlot);
        _activeSlot = kNoSlot;
        _activeHead = 0;
    }
    // Run and destroy the closure in its pool slot (one indirect
    // call); the slot is reused only once the closure has returned,
    // and chunks never move, so whatever it schedules cannot disturb
    // it.
    _pool.at(cb).consume();
    _pool.recycle(cb);
}

bool
EventQueue::runOne()
{
    const Tick t = scanNextTick();
    if (t == kTickForever)
        return false;
    dispatch(t);
    return true;
}

std::uint64_t
EventQueue::drain(Tick limit)
{
    if (_running) {
        OPTIMUS_FATAL("EventQueue run called from inside an event; "
                      "only top-level code may advance the simulation");
    }
    _running = true;
    const std::uint64_t n = drainEvents(limit);
    _running = false;
    _runs += n != 0;
    return n;
}

std::uint64_t
EventQueue::drainEvents(Tick limit)
{
    _stopRequested = false;
    std::uint64_t n = 0;
    for (;;) {
        // Fast path: while a slot is mid-drain its cursor is the
        // queue-wide minimum (an earlier event could only exist at a
        // tick >= _now inside the active slot's span, and such an
        // insert goes through the ordered active-slot path). Drain it
        // without re-deriving the next slot per event.
        while (_activeSlot != kNoSlot) {
            Tick t = _buckets[_activeSlot][_activeHead].when;
            if (t > limit) {
                // Time stops at the limit, which may be below this
                // slot's span, and the caller may then legally
                // schedule ticks earlier than the cursor into other
                // slots. Release the activation so those inserts are
                // found first on the next run.
                deactivate();
                return n;
            }
            dispatchActive(t);
            ++n;
            if (_stopRequested) {
                // Time stays at the stopping event, inside the active
                // slot's span (if any), as after runOne(). The flag
                // stays set until the next run starts, telling
                // runUntil() not to advance the clock.
                return n;
            }
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
            return n;
        _now = t;
        advanceWindow();
        activateSlot(_occupied.findFrom(slotOf(t)));
    }
}

std::uint64_t
EventQueue::runUntil(Tick limit)
{
    std::uint64_t n = drain(limit);
    if (!_stopRequested && _now < limit)
        _now = limit;
    return n;
}

EventQueue::TopLevel::TopLevel(EventQueue &q, const char *who) : _q(q)
{
    if (q._running) {
        OPTIMUS_FATAL("%s called from inside an event; only top-level "
                      "code may advance the simulation",
                      who);
    }
    if (q._holder) {
        OPTIMUS_FATAL("%s called while %s holds the queue (from its "
                      "predicate or barrier work); only top-level code "
                      "may advance the simulation",
                      who, q._holder);
    }
    q._holder = who;
}

bool
EventQueue::pumpUntil(const std::function<bool()> &stop)
{
    TopLevel top(*this, "EventQueue::pumpUntil");
    if (stop())
        return true;
    // Each runAll() ends at a stop request (the only point @p stop
    // can newly hold) or when the queue drains.
    while (runAll() != 0) {
        if (stop())
            return true;
    }
    return false;
}

} // namespace optimus::sim

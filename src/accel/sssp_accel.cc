#include "accel/sssp_accel.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"

namespace optimus::accel {

namespace {
constexpr std::uint32_t kInf = 0xffffffffu;
constexpr std::uint64_t kLine = sim::kCacheLineBytes;

std::uint64_t
lineBase(std::uint64_t addr)
{
    return addr & ~(kLine - 1);
}
} // namespace

SsspAccel::SsspAccel(sim::EventQueue &eq,
                     const sim::PlatformParams &params,
                     std::string name, sim::Scope scope)
    : Accelerator(eq, params, std::move(name), 200, scope)
{
    dma().setMaxOutstanding(64);
}

void
SsspAccel::onStart()
{
    _rowptr = appReg(kRegRowptr);
    _edges = appReg(kRegEdges);
    _dist = appReg(kRegDist);
    _nvert = static_cast<std::uint32_t>(appReg(kRegNvert));
    OPTIMUS_ASSERT(_nvert > 0, "SSSP with no vertices");
    _vertexWindow = appReg(kRegWindow) != 0
                        ? static_cast<std::uint32_t>(
                              appReg(kRegWindow))
                        : kDefaultVertexWindow;
    dma().setMaxOutstanding(std::max(4 * _vertexWindow, 16u));

    _frontier.assign(
        1, static_cast<std::uint32_t>(appReg(kRegSource)));
    _next.clear();
    _inNext.assign(_nvert, false);
    _frontierPos = 0;
    _activeVertices = 0;
    _lineOps.clear();
    _relaxations = 0;
    _rounds = 0;
    dispatch();
}

void
SsspAccel::onSoftReset()
{
    _frontier.clear();
    _next.clear();
    _inNext.clear();
    _frontierPos = 0;
    _activeVertices = 0;
    _lineOps.clear();
    _relaxations = 0;
    _rounds = 0;
}

void
SsspAccel::dispatch()
{
    if (!running())
        return;
    while (_frontierPos < _frontier.size() &&
           _activeVertices < _vertexWindow &&
           dma().inFlight() < dma().maxOutstanding()) {
        ++_activeVertices;
        startVertex(_frontier[_frontierPos++]);
    }
    maybeEndRound();
}

void
SsspAccel::startVertex(std::uint32_t v)
{
    // Fetch rowptr[v] and rowptr[v+1]; both live in one line unless
    // v+1 crosses the boundary.
    std::uint64_t a0 = _rowptr + 4ULL * v;
    std::uint64_t a1 = _rowptr + 4ULL * (v + 1);
    std::uint64_t l0 = lineBase(a0);
    std::uint64_t l1 = lineBase(a1);

    auto state = std::make_shared<std::array<std::uint32_t, 2>>();
    auto remaining =
        std::make_shared<std::uint32_t>(l0 == l1 ? 1u : 2u);

    auto after_rowptr = [this, v, state]() {
        // Now fetch dist[v], then walk the edges.
        std::uint32_t begin = (*state)[0];
        std::uint32_t end = (*state)[1];
        std::uint64_t daddr = _dist + 4ULL * v;
        dma().read(mem::Gva(lineBase(daddr)), kLine,
                   [this, v, begin, end, daddr](ccip::DmaTxn &t) {
                       if (t.error) {
                           fail();
                           return;
                       }
                       std::uint32_t dv;
                       std::memcpy(&dv,
                                   t.data.data() +
                                       (daddr % kLine),
                                   4);
                       if (dv == kInf || begin >= end) {
                           --_activeVertices;
                           dispatch();
                           return;
                       }
                       fetchEdges(v, dv, begin, end);
                   });
    };

    auto on_line = [this, a0, a1, l0, state, remaining,
                    after_rowptr](std::uint64_t line_gva,
                                  ccip::DmaTxn &t) {
        if (t.error) {
            fail();
            return;
        }
        if (line_gva == l0 && lineBase(a0) == line_gva) {
            std::memcpy(&(*state)[0], t.data.data() + (a0 % kLine),
                        4);
        }
        if (lineBase(a1) == line_gva) {
            std::memcpy(&(*state)[1], t.data.data() + (a1 % kLine),
                        4);
        }
        if (--*remaining == 0)
            after_rowptr();
    };

    dma().read(mem::Gva(l0), kLine, [on_line, l0](ccip::DmaTxn &t) {
        on_line(l0, t);
    });
    if (l1 != l0) {
        dma().read(mem::Gva(l1), kLine,
                   [on_line, l1](ccip::DmaTxn &t) {
                       on_line(l1, t);
                   });
    }
}

void
SsspAccel::fetchEdges(std::uint32_t v, std::uint32_t dv,
                      std::uint32_t begin, std::uint32_t end)
{
    (void)v;
    std::uint64_t first = _edges + 8ULL * begin;
    std::uint64_t last = _edges + 8ULL * end; // exclusive
    std::uint64_t first_line = lineBase(first);
    std::uint64_t nlines = (last - first_line + kLine - 1) / kLine;

    auto remaining = std::make_shared<std::uint64_t>(nlines);
    for (std::uint64_t li = 0; li < nlines; ++li) {
        std::uint64_t lg = first_line + li * kLine;
        dma().read(
            mem::Gva(lg), kLine,
            [this, lg, first, last, dv,
             remaining](ccip::DmaTxn &t) {
                if (t.error) {
                    fail();
                    return;
                }
                // Relax every edge record within [first, last) that
                // falls inside this line.
                std::uint64_t lo = std::max(first, lg);
                std::uint64_t hi = std::min(last, lg + kLine);
                for (std::uint64_t a = lo; a + 8 <= hi; a += 8) {
                    std::uint32_t dest;
                    std::uint32_t w;
                    std::memcpy(&dest, t.data.data() + (a - lg), 4);
                    std::memcpy(&w, t.data.data() + (a - lg) + 4, 4);
                    if (dest >= _nvert) {
                        // An edge out of the graph is malformed guest
                        // data: a device error, reported once however
                        // many such edges are still in flight.
                        if (status() != Status::kError)
                            fail();
                        return;
                    }
                    relax(dest, dv + w);
                }
                if (--*remaining == 0) {
                    OPTIMUS_ASSERT(_activeVertices > 0,
                                   "vertex underflow");
                    --_activeVertices;
                    dispatch();
                    maybeEndRound();
                }
            });
    }
}

void
SsspAccel::relax(std::uint32_t dst, std::uint32_t nd)
{
    std::uint64_t line_gva = lineBase(_dist + 4ULL * dst);
    auto [it, fresh] = _lineOps.try_emplace(line_gva);
    it->second.push_back(Relax{dst, nd});
    if (fresh)
        serviceLine(line_gva);
}

void
SsspAccel::serviceLine(std::uint64_t line_gva)
{
    // Read the dist line, apply every queued relaxation for it, and
    // write it back if anything improved. New relaxations arriving
    // while the RMW is in flight join the queue and trigger another
    // pass, so updates are never lost.
    dma().read(mem::Gva(line_gva), kLine, [this,
                                           line_gva](ccip::DmaTxn &t) {
        if (t.error) {
            fail();
            return;
        }
        auto it = _lineOps.find(line_gva);
        OPTIMUS_ASSERT(it != _lineOps.end(), "lost line ops");

        std::uint8_t line[kLine];
        std::memcpy(line, t.data.data(), kLine);
        bool dirty = false;
        std::size_t applied = it->second.size();
        for (std::size_t i = 0; i < applied; ++i) {
            const Relax &r = it->second[i];
            std::uint64_t off = (_dist + 4ULL * r.vertex) - line_gva;
            std::uint32_t cur;
            std::memcpy(&cur, line + off, 4);
            if (r.dist < cur) {
                std::memcpy(line + off, &r.dist, 4);
                dirty = true;
                ++_relaxations;
                bumpProgress();
                markNext(r.vertex);
            }
        }

        auto finish_line = [this, line_gva, applied]() {
            auto it2 = _lineOps.find(line_gva);
            OPTIMUS_ASSERT(it2 != _lineOps.end(), "lost line ops");
            it2->second.erase(it2->second.begin(),
                              it2->second.begin() +
                                  static_cast<std::ptrdiff_t>(
                                      applied));
            if (it2->second.empty()) {
                _lineOps.erase(it2);
                // Freed request slots may unblock vertex dispatch.
                dispatch();
            } else {
                serviceLine(line_gva);
            }
        };

        if (dirty) {
            dma().write(mem::Gva(line_gva), line, kLine,
                        [this, finish_line](ccip::DmaTxn &w) {
                            if (w.error) {
                                fail();
                                return;
                            }
                            finish_line();
                        });
        } else {
            finish_line();
        }
    });
}

void
SsspAccel::markNext(std::uint32_t v)
{
    if (!_inNext[v]) {
        _inNext[v] = true;
        _next.push_back(v);
    }
}

void
SsspAccel::maybeEndRound()
{
    if (!running())
        return;
    if (_frontierPos < _frontier.size() || _activeVertices > 0 ||
        !_lineOps.empty()) {
        return;
    }

    if (_next.empty()) {
        finish(_relaxations);
        return;
    }
    ++_rounds;
    _frontier = std::move(_next);
    _next.clear();
    std::fill(_inNext.begin(), _inNext.end(), false);
    _frontierPos = 0;
    dispatch();
}

void
SsspAccel::saveArchState(StateWriter &w) const
{
    // At save time the pipeline has drained: no active vertices and
    // no line RMWs in flight. State is the remaining frontier, the
    // next-round set, and the counters.
    const std::uint64_t rem = _frontier.size() - _frontierPos;
    w.u64(rem);
    w.u64(_next.size());
    w.u64(_relaxations);
    w.u64(_rounds);
    w.bytes(_frontier.data() + _frontierPos, 4 * rem);
    w.bytes(_next.data(), 4 * _next.size());
}

void
SsspAccel::restoreArchState(StateReader &r)
{
    r.label("SSSP");
    _rowptr = appReg(kRegRowptr);
    _edges = appReg(kRegEdges);
    _dist = appReg(kRegDist);
    _nvert = static_cast<std::uint32_t>(appReg(kRegNvert));

    const std::uint64_t rem = r.u64();
    const std::uint64_t next = r.u64();
    _relaxations = r.u64();
    _rounds = r.u64();
    // markNext() indexes _inNext by vertex: every id is below NVERT.
    r.u32s(_frontier, rem, _nvert, "frontier vertex");
    r.u32s(_next, next, _nvert, "next vertex");
    _frontierPos = 0;
    _activeVertices = 0;
    _lineOps.clear();
    _inNext.assign(_nvert, false);
    for (std::uint32_t v : _next)
        _inNext[v] = true;
}

void
SsspAccel::onResumed()
{
    dispatch();
    maybeEndRound();
}

std::uint64_t
SsspAccel::archStateCapacity() const
{
    // Worst case: every vertex in both the frontier and next sets.
    std::uint64_t n = appReg(kRegNvert);
    return 32 + 8 * n;
}

} // namespace optimus::accel

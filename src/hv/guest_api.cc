#include "hv/guest_api.hh"

#include <vector>

#include "sim/logging.hh"

namespace optimus::hv {

AccelHandle::AccelHandle(OptimusHv &hv, VirtualAccel &v)
    : _hv(hv), _v(v), _heap(hv, v)
{
}

void
AccelHandle::pumpUntil(const std::function<bool()> &pred)
{
    // @p pred is evaluated at each stop request, so every call below
    // names the event that requests its stop.
    if (!_hv.eventq().pumpUntil(pred)) {
        OPTIMUS_FATAL("guest library deadlock: event queue drained "
                      "while waiting");
    }
}

void
AccelHandle::waitOnDevice(const std::function<bool()> &pred)
{
    // Stop source: the hypervisor's wake of a guest blocked on this
    // vaccel (VirtualAccel::setGuestWaiting).
    _v.setGuestWaiting(true);
    pumpUntil(pred);
    _v.setGuestWaiting(false);
}

void
AccelHandle::finish(bool &done)
{
    done = true;
    _hv.eventq().requestStop();
}

mem::Gva
AccelHandle::dmaAlloc(std::uint64_t bytes, std::uint64_t align)
{
    // Stop source: the allocation's completion, after the last page
    // registration hypercall it needed.
    bool done = false;
    mem::Gva out(0);
    _heap.alloc(bytes, align, [&](mem::Gva g) {
        out = g;
        finish(done);
    });
    pumpUntil([&]() { return done; });
    OPTIMUS_ASSERT(out.value() != 0, "DMA allocation failed");
    return out;
}

void
AccelHandle::mmioWrite(std::uint64_t reg, std::uint64_t value)
{
    // Stop source: the trapped write's completion.
    bool done = false;
    _hv.mmioWrite(_v, reg, value, [&]() { finish(done); });
    pumpUntil([&]() { return done; });
}

std::uint64_t
AccelHandle::mmioRead(std::uint64_t reg)
{
    // Stop source: the trapped read's completion.
    bool done = false;
    std::uint64_t out = 0;
    _hv.mmioRead(_v, reg, [&](std::uint64_t v) {
        out = v;
        finish(done);
    });
    pumpUntil([&]() { return done; });
    return out;
}

void
AccelHandle::setupStateBuffer()
{
    std::uint64_t size = mmioRead(accel::reg::kStateSize);
    mem::Gva buf = dmaAlloc(size, 64);
    mmioWrite(accel::reg::kStateBuf, buf.value());
}

void
AccelHandle::setupRing(std::uint32_t entries)
{
    std::uint64_t bytes = ring::ringBytes(entries);
    mem::Gva base = dmaAlloc(bytes, ring::kLineBytes);
    std::vector<std::uint8_t> zero(bytes, 0);
    memWrite(base, zero.data(), bytes);
    // Stop source: the setup hypercall's completion.
    bool done = false;
    _hv.setupRing(_v, base, entries, [&]() { finish(done); });
    pumpUntil([&]() { return done; });
    _submitQ = ring::SubmitQueue(process(), base, entries);
    _completeQ = ring::CompleteQueue(process(), base, entries);
}

std::uint64_t
AccelHandle::ringSubmit()
{
    OPTIMUS_ASSERT(_submitQ.valid(), "ringSubmit before setupRing");
    // A full ring frees a slot when the device acknowledges its next
    // fetch (the ring-ack wake).
    waitOnDevice([&]() { return !_submitQ.full(); });
    std::uint64_t seq = _submitQ.push(ring::op::kStart);
    _submitQ.publish();
    // Stop source: the publish's completion.
    bool done = false;
    _hv.ringPublish(_v, _submitQ.produced(), [&]() { finish(done); });
    pumpUntil([&]() { return done; });
    return seq;
}

bool
AccelHandle::ringPoll(ring::CompleteEntry &out)
{
    OPTIMUS_ASSERT(_completeQ.valid(), "ringPoll before setupRing");
    return _completeQ.poll(out);
}

ring::CompleteEntry
AccelHandle::ringWait(std::uint64_t seq)
{
    // Stop source: a completion landing in this ring (the ring-post
    // wake, or the hypervisor's error completions).
    ring::CompleteEntry e{};
    bool got = false;
    waitOnDevice([&]() {
        while (_completeQ.poll(e)) {
            if (e.seq == seq) {
                got = true;
                return true;
            }
        }
        return false;
    });
    OPTIMUS_ASSERT(got, "ringWait consumed past its sequence");
    return e;
}

void
AccelHandle::ringResync()
{
    _submitQ.resync();
    _completeQ.resync();
}

accel::Status
AccelHandle::wait()
{
    // Stop source: the job's end (its DONE or ERROR doorbell, a
    // quarantine or a forced reset).
    waitOnDevice([&]() {
        accel::Status st = _hv.peekStatus(_v);
        return st == accel::Status::kDone ||
               st == accel::Status::kError;
    });
    return _hv.peekStatus(_v);
}

} // namespace optimus::hv

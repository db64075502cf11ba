#include "ring/ring.hh"

namespace optimus::ring {

const char *
cmdPathName(CmdPath p)
{
    return p == CmdPath::kRing ? "ring" : "mmio";
}

std::uint32_t
defaultEntries(std::uint32_t batchMax)
{
    std::uint32_t want = batchMax > 4 ? 2 * batchMax : 8;
    std::uint32_t n = 8;
    while (n < want)
        n <<= 1;
    return n;
}

// ---------------------------------------------------------------
// SubmitQueue
// ---------------------------------------------------------------

SubmitQueue::SubmitQueue(guest::Process &proc, mem::Gva base,
                         std::uint32_t entries)
    : _proc(&proc), _base(base), _entries(entries)
{
}

bool
SubmitQueue::full() const
{
    std::uint64_t cons = _proc->readValue<std::uint64_t>(
        mem::Gva(_base.value() + headerOff(kSubmitConsLine)));
    return _prod - cons >= _entries;
}

std::uint64_t
SubmitQueue::push(std::uint64_t opcode, std::uint64_t arg0,
                  std::uint64_t arg1)
{
    SubmitEntry e;
    e.seq = _prod;
    e.op = opcode;
    e.arg0 = arg0;
    e.arg1 = arg1;
    _proc->writeValue(
        mem::Gva(_base.value() + submitSlotOff(_entries, e.seq)), e);
    ++_prod;
    return e.seq;
}

void
SubmitQueue::publish()
{
    _proc->writeValue(
        mem::Gva(_base.value() + headerOff(kSubmitProdLine)), _prod);
}

void
SubmitQueue::resync()
{
    _prod = _proc->readValue<std::uint64_t>(
        mem::Gva(_base.value() + headerOff(kSubmitProdLine)));
}

// ---------------------------------------------------------------
// CompleteQueue
// ---------------------------------------------------------------

CompleteQueue::CompleteQueue(guest::Process &proc, mem::Gva base,
                             std::uint32_t entries)
    : _proc(&proc), _base(base), _entries(entries)
{
}

std::uint64_t
CompleteQueue::pending() const
{
    std::uint64_t prod = _proc->readValue<std::uint64_t>(
        mem::Gva(_base.value() + headerOff(kCompleteProdLine)));
    return prod - _cons;
}

bool
CompleteQueue::poll(CompleteEntry &out)
{
    if (pending() == 0)
        return false;
    out = _proc->readValue<CompleteEntry>(
        mem::Gva(_base.value() + completeSlotOff(_entries, _cons)));
    ++_cons;
    _proc->writeValue(
        mem::Gva(_base.value() + headerOff(kCompleteConsLine)),
        _cons);
    return true;
}

void
CompleteQueue::resync()
{
    _cons = _proc->readValue<std::uint64_t>(
        mem::Gva(_base.value() + headerOff(kCompleteConsLine)));
}

} // namespace optimus::ring

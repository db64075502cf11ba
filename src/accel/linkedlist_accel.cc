#include "accel/linkedlist_accel.hh"

#include <cstring>

namespace optimus::accel {

LinkedlistAccel::LinkedlistAccel(sim::EventQueue &eq,
                                 const sim::PlatformParams &params,
                                 std::string name,
                                 sim::Scope scope)
    : Accelerator(eq, params, std::move(name), 400, scope)
{
    // Strictly serial: the next address is only known when the
    // current node arrives.
    dma().setMaxOutstanding(1);
}

void
LinkedlistAccel::onStart()
{
    _current = appReg(kRegHead);
    _walked = 0;
    _checksum = 0;
    dma().setChannel(
        static_cast<ccip::VChannel>(appReg(kRegChannel)));
    step();
}

void
LinkedlistAccel::onSoftReset()
{
    _current = 0;
    _walked = 0;
    _checksum = 0;
}

void
LinkedlistAccel::step()
{
    if (!running())
        return;
    if (_current == 0) {
        finish(_checksum);
        return;
    }
    const std::uint64_t count = appReg(kRegCount);
    if (count != 0 && _walked >= count) {
        finish(_checksum);
        return;
    }

    dma().read(mem::Gva(_current), sim::kCacheLineBytes,
               [this](ccip::DmaTxn &t) {
                   if (t.error) {
                       fail();
                       return;
                   }
                   LinkedListNode node;
                   std::memcpy(&node, t.data.data(), sizeof(node));
                   _current = node.next;
                   _checksum += node.payload[0];
                   ++_walked;
                   bumpProgress();
                   step();
               });
}

void
LinkedlistAccel::saveArchState(StateWriter &w) const
{
    // The paper's canonical minimal state: the address of the next
    // node (plus the running counters).
    w.u64(_current);
    w.u64(_walked);
    w.u64(_checksum);
}

void
LinkedlistAccel::restoreArchState(StateReader &r)
{
    r.label("LinkedList");
    _current = r.u64();
    _walked = r.u64();
    _checksum = r.u64();
}

void
LinkedlistAccel::onResumed()
{
    dma().setChannel(
        static_cast<ccip::VChannel>(appReg(kRegChannel)));
    step();
}

} // namespace optimus::accel

/**
 * @file
 * PoolArena and DmaTxnPtr: every DMA transaction is one move-only
 * handle whose block comes from, and goes back to, its context's free
 * list. These tests pin the recycling, the isolation between contexts
 * that makes concurrent Systems safe, and the teardown order that
 * lets transactions still held by pending closures give their blocks
 * back.
 */

#include <gtest/gtest.h>

#include <memory>
#include <type_traits>
#include <utility>

#include "ccip/packet.hh"
#include "sim/event_queue.hh"

using namespace optimus;

namespace {

// One owner per DMA: a transaction is passed on, never shared.
static_assert(!std::is_copy_constructible_v<ccip::DmaTxnPtr> &&
                  !std::is_copy_assignable_v<ccip::DmaTxnPtr>,
              "a DmaTxnPtr must be move-only");
static_assert(std::is_nothrow_move_constructible_v<ccip::DmaTxnPtr>,
              "a DmaTxnPtr must move without throwing");

TEST(PoolArena, FreedBlockIsReusedByTheNextTransaction)
{
    sim::EventQueue eq;
    ccip::DmaTxnPtr a = ccip::makeTxn(eq.arena());
    a->id = 7;
    a->error = true;
    const ccip::DmaTxn *first = a.get();
    a.reset();
    // The free list is LIFO: the very next transaction must reuse the
    // block, not fresh memory, and start from a fresh DmaTxn.
    ccip::DmaTxnPtr b = ccip::makeTxn(eq.arena());
    EXPECT_EQ(b.get(), first);
    EXPECT_EQ(b->id, 0u);
    EXPECT_FALSE(b->error);
}

TEST(PoolArena, QueuesNeverShareABlock)
{
    sim::EventQueue eq_a;
    sim::EventQueue eq_b;
    ccip::DmaTxnPtr a = ccip::makeTxn(eq_a.arena());
    const ccip::DmaTxn *freed = a.get();
    a.reset();
    // A block freed into context A must never be served to context
    // B: that would be cross-context sharing.
    ccip::DmaTxnPtr b = ccip::makeTxn(eq_b.arena());
    EXPECT_NE(b.get(), freed);
    b.reset();
    // ...while context A still serves its own recycled block.
    ccip::DmaTxnPtr a2 = ccip::makeTxn(eq_a.arena());
    EXPECT_EQ(a2.get(), freed);
}

TEST(PoolArena, QueueTeardownReturnsHeldTransactions)
{
    // Each transaction's completion holds a token; a transaction that
    // is destroyed drops it, and its recycler gives the block back.
    auto token = std::make_shared<int>(0);
    {
        sim::EventQueue eq;
        // One block already back on the free list...
        ccip::makeTxn(eq.arena()).reset();
        // ...and transactions held by closures that never run.
        for (int i = 0; i < 8; ++i) {
            ccip::DmaTxnPtr t = ccip::makeTxn(eq.arena());
            t->onComplete = [token](ccip::DmaTxn &) {};
            eq.scheduleIn(1000 + i, [t = std::move(t)]() {});
        }
        EXPECT_EQ(token.use_count(), 9);
    }
    // The queue's closures died before its arena: every transaction
    // was destroyed and its block freed (LeakSanitizer checks the
    // frees under ASan).
    EXPECT_EQ(token.use_count(), 1);
}

} // namespace

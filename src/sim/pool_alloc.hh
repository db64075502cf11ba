/**
 * @file
 * The free list that recycles the simulation's DMA-transaction
 * blocks.
 *
 * Every DMA is one ccip::DmaTxn in one fixed-size block, owned by one
 * handle from the port that issues it to the accelerator that takes
 * its response; it lives for a few microseconds of simulated time and
 * dies. A streaming run holds hundreds live at once (8 ports with a
 * 256-request window each), far more than the general-purpose
 * allocator's per-size thread cache keeps, so a private free list
 * turns each round trip into a push and a pop and keeps the recycled
 * blocks hot in cache.
 *
 * The list lives in a PoolArena owned by the simulation context (the
 * EventQueue): each simulated System recycles only its own blocks,
 * so two contexts never share one. It grows to the context's
 * high-water mark of live transactions and is freed when the arena
 * dies.
 */

#ifndef OPTIMUS_SIM_POOL_ALLOC_HH
#define OPTIMUS_SIM_POOL_ALLOC_HH

#include <cstddef>
#include <new>
#include <vector>

namespace optimus::sim {

/**
 * Per-context home of the recycled blocks: one LIFO free list of
 * blocks of one size, the size its one client (ccip::makeTxn) asks
 * for. Not thread-safe by itself — an arena belongs to exactly one
 * simulation context, and that context must only ever be driven from
 * one thread at a time (the context-locality invariant; see
 * hv::System).
 *
 * Lifetime: the arena must outlive every block taken from it,
 * including those whose transaction dies during context teardown.
 * Owning it from the EventQueue — destroyed after every platform
 * component of its System — satisfies this.
 */
class PoolArena
{
  public:
    PoolArena() = default;
    PoolArena(const PoolArena &) = delete;
    PoolArena &operator=(const PoolArena &) = delete;

    ~PoolArena()
    {
        for (void *b : _free)
            ::operator delete(b);
    }

    /** A block of @p bytes: the last one given back, else fresh
     *  memory. Every take() on one arena asks for the same size. */
    void *
    take(std::size_t bytes)
    {
        if (_free.empty())
            return ::operator new(bytes);
        void *b = _free.back();
        _free.pop_back();
        return b;
    }

    /** Give back a block taken from this arena. */
    void give(void *block) { _free.push_back(block); }

  private:
    std::vector<void *> _free;
};

} // namespace optimus::sim

#endif // OPTIMUS_SIM_POOL_ALLOC_HH

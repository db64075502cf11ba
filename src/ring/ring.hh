/**
 * @file
 * Doorbell-free shared-memory command/completion rings (DESIGN.md
 * §14). A submission/completion ring pair lives in the guest's
 * pinned window memory; the guest produces commands and consumes
 * completions with plain CPU stores, and the accelerator fetches
 * commands and posts completions with ordinary DMA — no MMIO trap on
 * the job hot path.
 *
 * Single-writer discipline (the ivshmem read/write-isolation
 * protocol): every 64-byte line has exactly one writer. The producer
 * writes entry lines and then publishes a monotonically increasing
 * sequence word in its own header line; the consumer polls that word
 * and acknowledges through a separate header line it alone writes.
 * Sequence numbers never wrap within a ring's lifetime — slot index
 * is seq mod entries — so torn progress is impossible to confuse
 * with stale progress.
 *
 * Ring layout, all lines 64 B:
 *
 *   line 0              submit.prod   (guest writes, device reads)
 *   line 1              submit.cons   (device writes, guest reads)
 *   line 2              complete.prod (device writes, guest reads)
 *   line 3              complete.cons (guest writes, device reads)
 *   lines 4 .. 4+N-1    submit entries   (guest writes)
 *   lines 4+N .. 4+2N-1 complete entries (device writes)
 *
 * Because the ring is carved from the DMA window heap it sits inside
 * DmaHeap::registeredBytes(), so checkpoint/restore and fleet
 * live-migration carry the full ring state in the window image for
 * free.
 */

#ifndef OPTIMUS_RING_RING_HH
#define OPTIMUS_RING_RING_HH

#include <cstdint>

#include "guest/process.hh"
#include "mem/address.hh"

namespace optimus::ring {

// ---------------------------------------------------------------
// Command-path selection.
// ---------------------------------------------------------------

/** Which control path a tenant uses to drive its vaccel. */
enum class CmdPath : std::uint8_t
{
    kMmio, ///< trapped MMIO doorbells (the paper's baseline)
    kRing, ///< polled shared-memory rings (this subsystem)
};

/** Canonical lowercase name ("mmio" / "ring"). */
const char *cmdPathName(CmdPath p);

// ---------------------------------------------------------------
// Layout.
// ---------------------------------------------------------------

/** Every ring cell is one cache line — one DMA transaction, one
 *  single-writer unit of coherence. */
constexpr std::uint32_t kLineBytes = 64;

/** Header line indices (order matches the file comment). */
constexpr std::uint64_t kSubmitProdLine = 0;
constexpr std::uint64_t kSubmitConsLine = 1;
constexpr std::uint64_t kCompleteProdLine = 2;
constexpr std::uint64_t kCompleteConsLine = 3;
constexpr std::uint32_t kHeaderLines = 4;

/** Byte offset of header line @p line within the ring area. */
constexpr std::uint64_t
headerOff(std::uint64_t line)
{
    return line * kLineBytes;
}

/** Byte offset of the submit slot holding @p seq. */
constexpr std::uint64_t
submitSlotOff(std::uint32_t entries, std::uint64_t seq)
{
    return (kHeaderLines + seq % entries) *
           static_cast<std::uint64_t>(kLineBytes);
}

/** Byte offset of the complete slot holding @p seq. */
constexpr std::uint64_t
completeSlotOff(std::uint32_t entries, std::uint64_t seq)
{
    return (kHeaderLines + entries + seq % entries) *
           static_cast<std::uint64_t>(kLineBytes);
}

/** Total bytes a ring pair with @p entries slots occupies. */
constexpr std::uint64_t
ringBytes(std::uint32_t entries)
{
    return (kHeaderLines + 2ULL * entries) * kLineBytes;
}

/** Ring sizing for a dispatcher that keeps up to @p batchMax jobs
 *  outstanding: the next power of two >= 2*batchMax, floor 8, so the
 *  producer never stalls on a full ring at steady state. */
std::uint32_t defaultEntries(std::uint32_t batchMax);

// ---------------------------------------------------------------
// Wire formats. One entry per line; layouts frozen (they live in
// guest memory and ride migration images between nodes).
// ---------------------------------------------------------------

/** Submission opcodes. */
namespace op {
/** Run one job with the current application-register programming. */
constexpr std::uint64_t kStart = 1;
} // namespace op

/** One command, written by the guest producer. */
struct SubmitEntry
{
    std::uint64_t seq = 0;  ///< ring sequence number (never wraps)
    std::uint64_t op = 0;   ///< ring::op::*
    std::uint64_t arg0 = 0; ///< opcode-specific (unused by kStart)
    std::uint64_t arg1 = 0;
};
static_assert(sizeof(SubmitEntry) <= kLineBytes,
              "submit entry must fit one line");

/** One completion, written in place by the device. */
struct CompleteEntry
{
    std::uint64_t seq = 0;      ///< matches the submit entry
    std::uint64_t status = 0;   ///< accel::Status as integer
    std::uint64_t result = 0;   ///< job result register
    std::uint64_t progress = 0; ///< job progress register
    std::uint64_t err = 0;      ///< accel::errst bits (hv-stamped)
    std::uint64_t tick = 0;     ///< device tick the job completed at
};
static_assert(sizeof(CompleteEntry) <= kLineBytes,
              "complete entry must fit one line");

// ---------------------------------------------------------------
// Device-side cursor state. Owned by the accelerator's ring poller;
// mirrored by the hypervisor so preemption, checkpoint/restore and
// migration can quiesce and re-arm the poller exactly.
// ---------------------------------------------------------------

struct DeviceState
{
    std::uint64_t prodSeq = 0; ///< last published seq the device saw
    std::uint64_t nextSeq = 0; ///< next submit seq to fetch
    std::uint64_t compSeq = 0; ///< completions posted so far
    std::uint64_t jobSeq = 0;  ///< seq of the in-flight job
    bool jobActive = false;    ///< a fetched job is running/preempted
};

/** Everything needed to (re-)arm a device poller. */
struct DeviceConfig
{
    mem::Gva base{};            ///< ring area base (guest virtual)
    std::uint32_t entries = 0;  ///< slots per ring
    DeviceState state{};
};

// ---------------------------------------------------------------
// Guest-side producer/consumer views. Plain CPU accesses through the
// owning process (zero simulated cost, like any guest heap touch);
// the simulated cost of the path is carried by the hypervisor's
// publish kick and the device's DMA fetch/post.
// ---------------------------------------------------------------

/** Guest producer over the submission ring. */
class SubmitQueue
{
  public:
    SubmitQueue() = default;
    SubmitQueue(guest::Process &proc, mem::Gva base,
                std::uint32_t entries);

    bool valid() const { return _proc != nullptr; }
    mem::Gva base() const { return _base; }
    std::uint32_t entries() const { return _entries; }

    /** Next sequence number push() would allocate. */
    std::uint64_t produced() const { return _prod; }

    /** True when every slot holds an entry the device has not yet
     *  acknowledged (reads the device-owned submit.cons line). */
    bool full() const;

    /**
     * Write one command into its slot. Does NOT publish: the entry
     * line must be globally visible before the sequence word moves,
     * so batched pushes share one publish().
     * @return the entry's sequence number.
     */
    std::uint64_t push(std::uint64_t opcode, std::uint64_t arg0 = 0,
                       std::uint64_t arg1 = 0);

    /** Publish everything pushed so far (write submit.prod). */
    void publish();

    /** Reload the producer cursor from the submit.prod line — after
     *  a migration image overwrote the ring area. */
    void resync();

  private:
    guest::Process *_proc = nullptr;
    mem::Gva _base{};
    std::uint32_t _entries = 0;
    std::uint64_t _prod = 0;
};

/** Guest consumer over the completion ring. */
class CompleteQueue
{
  public:
    CompleteQueue() = default;
    CompleteQueue(guest::Process &proc, mem::Gva base,
                  std::uint32_t entries);

    bool valid() const { return _proc != nullptr; }
    std::uint64_t consumed() const { return _cons; }

    /** Completions published but not yet consumed (reads the
     *  device-owned complete.prod line). */
    std::uint64_t pending() const;

    /**
     * Consume the next completion if one is published: reads the
     * entry, advances the cursor, and acknowledges through the
     * guest-owned complete.cons line.
     * @return false when the ring has nothing new.
     */
    bool poll(CompleteEntry &out);

    /** Reload the consumer cursor from the complete.cons line. */
    void resync();

  private:
    guest::Process *_proc = nullptr;
    mem::Gva _base{};
    std::uint32_t _entries = 0;
    std::uint64_t _cons = 0;
};

} // namespace optimus::ring

#endif // OPTIMUS_RING_RING_HH

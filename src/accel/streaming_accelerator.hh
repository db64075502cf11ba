/**
 * @file
 * Base for read-process-write streaming accelerators (the HardCloud
 * application family: crypto, hashing, filters, codecs).
 *
 * The engine reads SRC..SRC+LEN sequentially as cache lines with a
 * configurable request window and pacing, delivers lines *in order*
 * to the derived class (a reorder buffer absorbs interconnect
 * reordering, as the real pipelines' line buffers do), and tracks
 * outstanding writes. Preemption state is the stream position plus
 * whatever the derived transform needs.
 */

#ifndef OPTIMUS_ACCEL_STREAMING_ACCELERATOR_HH
#define OPTIMUS_ACCEL_STREAMING_ACCELERATOR_HH

#include <cstdint>
#include <map>
#include <vector>

#include "accel/accelerator.hh"

namespace optimus::accel {

/** Common application-register indices for streaming apps. */
namespace stream_reg {
constexpr std::uint32_t kSrc = 0;  ///< input guest-virtual base
constexpr std::uint32_t kDst = 1;  ///< output guest-virtual base
constexpr std::uint32_t kLen = 2;  ///< input length in bytes
} // namespace stream_reg

/** Sequential-stream accelerator skeleton. */
class StreamingAccelerator : public Accelerator
{
  public:
    /** Tuning knobs that set the app's bandwidth demand. */
    struct Tuning
    {
        /** Outstanding-request window. */
        std::uint32_t window = 64;
        /**
         * Minimum accelerator cycles between successive reads; with
         * the clock frequency this sets the compute-bound demand.
         */
        std::uint32_t readGapCycles = 1;
    };

    StreamingAccelerator(sim::EventQueue &eq,
                         const sim::PlatformParams &params,
                         std::string name, std::uint64_t freq_mhz,
                         Tuning tuning,
                         sim::Scope scope = {});

  protected:
    // ----- derived transform interface -----
    /** Called once when a job starts, before any line arrives. */
    virtual void streamBegin() {}

    /**
     * One input line, in stream order. @p offset is the byte offset
     * within the input stream.
     */
    virtual void consumeLine(std::uint64_t offset,
                             const std::uint8_t *data,
                             std::uint32_t bytes) = 0;

    /**
     * All input has been consumed; emit any trailing output here
     * (e.g., a final digest). The engine finishes the job once every
     * emitted write completes.
     */
    virtual void streamEnd() {}

    /** Value latched into the RESULT register at completion. */
    virtual std::uint64_t resultValue() const { return progress(); }

    /** Write transform state, framed after the stream position. */
    virtual void saveTransformState(StateWriter &w) const { (void)w; }
    /** Inverse of saveTransformState(); @p r covers just its frame. */
    virtual void restoreTransformState(StateReader &r) { (void)r; }

    // ----- services for the derived class -----
    /** Emit an output write; completion is tracked by the engine. */
    void emit(mem::Gva gva, const void *data, std::uint32_t bytes);

    mem::Gva src() const { return mem::Gva(appReg(stream_reg::kSrc)); }
    mem::Gva dst() const { return mem::Gva(appReg(stream_reg::kDst)); }
    std::uint64_t streamLen() const
    {
        return appReg(stream_reg::kLen);
    }

    // ----- Accelerator overrides -----
    void onStart() override;
    void onSoftReset() override;
    void onResumed() override;
    void saveArchState(StateWriter &w) const override;
    void restoreArchState(StateReader &r) override;
    std::uint64_t archStateCapacity() const override;

    /** Extra capacity derived transforms need (default 4 KiB). */
    virtual std::uint64_t transformStateCapacity() const
    {
        return 4096;
    }

  private:
    void pump() final;
    void onReadLine(std::uint64_t offset, ccip::DmaTxn &txn);
    void drainReorderBuffer();
    void maybeFinish();

    Tuning _tuning;

    // Pacing state.
    sim::Tick _nextAllowed = 0;

    // Stream position state (saved on preempt).
    std::uint64_t _nextReadOff = 0;   ///< next offset to request
    std::uint64_t _consumedOff = 0;   ///< next offset to consume
    std::uint64_t _pendingWrites = 0; ///< emitted, not yet completed
    bool _inputDone = false;
    bool _endCalled = false;

    /** Out-of-order arrivals waiting to be consumed in order. */
    std::map<std::uint64_t, std::vector<std::uint8_t>> _reorder;
};

} // namespace optimus::accel

#endif // OPTIMUS_ACCEL_STREAMING_ACCELERATOR_HH

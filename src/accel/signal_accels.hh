/**
 * @file
 * Signal-processing benchmark accelerators: the FIR filter, the
 * Gaussian random number generator (GRN), the Reed-Solomon decoder
 * (RSD), and Smith-Waterman alignment (SW).
 */

#ifndef OPTIMUS_ACCEL_SIGNAL_ACCELS_HH
#define OPTIMUS_ACCEL_SIGNAL_ACCELS_HH

#include <array>
#include <string>
#include <vector>

#include "accel/algo/reed_solomon.hh"
#include "accel/algo/signal.hh"
#include "accel/algo/smith_waterman.hh"
#include "accel/streaming_accelerator.hh"

namespace optimus::accel {

/**
 * 16-tap FIR filter over int32 samples: reads SRC..SRC+LEN (16
 * samples per line), writes the filtered stream to DST.
 */
class FirAccel : public StreamingAccelerator
{
  public:
    FirAccel(sim::EventQueue &eq, const sim::PlatformParams &params,
             std::string name, sim::Scope scope = {});

  protected:
    void streamBegin() override;
    void consumeLine(std::uint64_t offset, const std::uint8_t *data,
                     std::uint32_t bytes) override;
    void saveTransformState(StateWriter &w) const override;
    void restoreTransformState(StateReader &r) override;
    std::uint64_t transformStateCapacity() const override
    {
        return sizeof(_history);
    }

  private:
    algo::Fir16 _fir;
    /** _history[0] is the newest already-consumed sample. */
    std::array<std::int32_t, algo::Fir16::kTaps> _history{};
};

/**
 * Gaussian random number generator: writes APP1=COUNT doubles drawn
 * from N(0,1) to DST, seeded by APP2. Write-only traffic.
 * App registers: 0 = DST, 1 = COUNT, 2 = SEED.
 */
class GrnAccel : public Accelerator
{
  public:
    static constexpr std::uint32_t kRegDst = 0;
    static constexpr std::uint32_t kRegCount = 1;
    static constexpr std::uint32_t kRegSeed = 2;
    static constexpr std::uint32_t kDoublesPerLine = 8;

    GrnAccel(sim::EventQueue &eq, const sim::PlatformParams &params,
             std::string name, sim::Scope scope = {});

  protected:
    void onStart() override;
    void onSoftReset() override;
    void saveArchState(StateWriter &w) const override;
    void restoreArchState(StateReader &r) override;
    void onResumed() override;
    std::uint64_t archStateCapacity() const override { return 128; }

  private:
    void pump() final;

    algo::GaussianSource _source{1};
    std::uint64_t _generated = 0;     ///< doubles produced so far
    std::uint64_t _pendingWrites = 0;
    sim::Tick _nextAllowed = 0;
    /** Pipeline initiation interval between output lines (cycles). */
    static constexpr std::uint32_t kLineGapCycles = 11;
};

/**
 * Reed-Solomon RS(255,223) decoder: the input stream holds one
 * codeword per 256-byte slot (255 bytes + 1 pad); the output stream
 * holds one corrected 223-byte message per 256-byte slot. RESULT is
 * the total number of symbol errors corrected; a slot that fails to
 * decode is zero-filled and counted in APP3's readback.
 */
class RsdAccel : public StreamingAccelerator
{
  public:
    static constexpr std::uint64_t kSlotBytes = 256;

    RsdAccel(sim::EventQueue &eq, const sim::PlatformParams &params,
             std::string name, sim::Scope scope = {});

  protected:
    void streamBegin() override;
    void consumeLine(std::uint64_t offset, const std::uint8_t *data,
                     std::uint32_t bytes) override;
    std::uint64_t resultValue() const override { return _corrected; }
    void saveTransformState(StateWriter &w) const override;
    void restoreTransformState(StateReader &r) override;
    std::uint64_t transformStateCapacity() const override
    {
        return kSlotBytes + 32;
    }

    /** Decode failures observed (exposed for tests). */
    std::uint64_t failures() const { return _failures; }

  private:
    algo::ReedSolomon _rs;
    std::array<std::uint8_t, kSlotBytes> _slot{};
    std::uint64_t _slotFill = 0;
    std::uint64_t _slotIndex = 0;
    std::uint64_t _corrected = 0;
    std::uint64_t _failures = 0;
};

/**
 * Smith-Waterman aligner: loads sequence A (APP0 base, APP1 length)
 * and sequence B (APP2 base, APP3 length), then computes the local
 * alignment score over a systolic wavefront lasting len(A)+len(B)
 * cycles. RESULT is the score. Preemption restarts the (short) job,
 * a legitimate policy under the paper's designer-defined interface.
 */
class SwAccel : public Accelerator
{
  public:
    static constexpr std::uint32_t kRegSeqA = 0;
    static constexpr std::uint32_t kRegLenA = 1;
    static constexpr std::uint32_t kRegSeqB = 2;
    static constexpr std::uint32_t kRegLenB = 3;

    SwAccel(sim::EventQueue &eq, const sim::PlatformParams &params,
            std::string name, sim::Scope scope = {});

  protected:
    void onStart() override;
    void onSoftReset() override;
    void saveArchState(StateWriter &w) const override { (void)w; }
    void restoreArchState(StateReader &r) override { (void)r; }
    void onResumed() override { onStart(); }
    std::uint64_t archStateCapacity() const override { return 8; }

  private:
    void load(std::uint32_t which);
    void maybeCompute();

    std::vector<std::uint8_t> _seq[2];
    std::uint64_t _loaded[2] = {0, 0};
    bool _done[2] = {false, false};
};

} // namespace optimus::accel

#endif // OPTIMUS_ACCEL_SIGNAL_ACCELS_HH

/**
 * @file
 * The benchmark accelerators' common register file layout.
 *
 * Per the preemption interface (Section 4.2), registers split into
 * control registers — privileged, trapped and emulated by the
 * hypervisor, used to start/preempt/resume jobs and manage saved
 * state — and application registers, which carry job parameters and
 * are cached in software while an accelerator is descheduled.
 */

#ifndef OPTIMUS_ACCEL_REGS_HH
#define OPTIMUS_ACCEL_REGS_HH

#include <cstdint>
#include <optional>

namespace optimus::accel {

namespace reg {
/** Control register: write 1-hot commands. */
constexpr std::uint64_t kCtrl = 0x00;
/** Current job status (read-only). */
constexpr std::uint64_t kStatus = 0x08;
/** Guest-virtual base of the preemption state buffer. */
constexpr std::uint64_t kStateBuf = 0x10;
/** Bytes of state this accelerator saves (read-only). */
constexpr std::uint64_t kStateSize = 0x18;
/** Primary job result (read-only). */
constexpr std::uint64_t kResult = 0x20;
/** Job progress counter, app-defined units (read-only). */
constexpr std::uint64_t kProgress = 0x28;
/** Guest-visible error status (read-only, hypervisor-maintained).
 *  The device itself always reads 0 here; OptimusHv overlays the
 *  per-vaccel error bits so each tenant observes only its own
 *  faults. */
constexpr std::uint64_t kErrStatus = 0x30;
/** First application register; 32 of them, 8 bytes apart. */
constexpr std::uint64_t kApp0 = 0x40;
constexpr std::uint32_t kNumAppRegs = 32;

/** Last control-register offset; everything below is privileged. */
constexpr std::uint64_t kControlEnd = kApp0;

constexpr std::uint64_t
appReg(std::uint32_t idx)
{
    return kApp0 + 8ULL * idx;
}

/** The index of the application register at @p offset, if it names
 *  one. */
constexpr std::optional<std::uint32_t>
appIndex(std::uint64_t offset)
{
    if (offset < kApp0 || offset >= appReg(kNumAppRegs) || offset % 8 != 0)
        return std::nullopt;
    return static_cast<std::uint32_t>((offset - kApp0) / 8);
}
} // namespace reg

/** CTRL command bits. */
namespace ctrl {
constexpr std::uint64_t kStart = 1 << 0;
constexpr std::uint64_t kPreempt = 1 << 1;
constexpr std::uint64_t kResume = 1 << 2;
constexpr std::uint64_t kSoftReset = 1 << 3;
} // namespace ctrl

/** ERR_STATUS bits (hypervisor-maintained, per-vaccel). */
namespace errst {
/** Watchdog expired with no forward progress; vaccel quarantined. */
constexpr std::uint64_t kWatchdog = 1 << 0;
/** Accelerator failed to cede on preempt; VCU force-reset the slot. */
constexpr std::uint64_t kForcedReset = 1 << 1;
/** A DMA of this tenant took an IO page fault. */
constexpr std::uint64_t kDmaFault = 1 << 2;
/** The device itself reported an error completion. */
constexpr std::uint64_t kDeviceError = 1 << 3;
} // namespace errst

/** Accelerator job status values. */
enum class Status : std::uint64_t
{
    kIdle = 0,
    kRunning = 1,
    kSaving = 2,    ///< preempt received, draining and saving state
    kSaved = 3,     ///< context fully saved; safe to schedule another
    kRestoring = 4, ///< resume received, loading state
    kDone = 5,
    kError = 6,
};

} // namespace optimus::accel

#endif // OPTIMUS_ACCEL_REGS_HH

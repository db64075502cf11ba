/**
 * @file
 * The interface the fabric (hardware monitor or bare shell) uses to
 * talk to an accelerator, and the interface an accelerator uses to
 * reach memory. Defined here so the fpga and accel libraries do not
 * depend on each other's concrete types.
 */

#ifndef OPTIMUS_FPGA_ACCEL_PORT_HH
#define OPTIMUS_FPGA_ACCEL_PORT_HH

#include <cstdint>

#include "ccip/packet.hh"

namespace optimus::fpga {

/** What the fabric can ask of an attached accelerator. */
class AccelDevice
{
  public:
    virtual ~AccelDevice() = default;

    /** Deliver a DMA response to the accelerator. */
    virtual void dmaResponse(ccip::DmaTxnPtr txn) = 0;

    /** Read a register in the accelerator's 4 KB MMIO page. */
    virtual std::uint64_t mmioRead(std::uint64_t offset) = 0;

    /** Write a register in the accelerator's 4 KB MMIO page. */
    virtual void mmioWrite(std::uint64_t offset,
                           std::uint64_t value) = 0;

    /** Hard reset (the VCU reset table pulses this line). */
    virtual void hardReset() = 0;
};

/** Perform @p op on register @p reg of @p dev and complete it: a
 *  write acks with the value written, a read with the value read. */
inline void
mmioAccess(AccelDevice &dev, std::uint64_t reg, ccip::MmioOp &op)
{
    std::uint64_t v = op.value;
    if (op.isWrite)
        dev.mmioWrite(reg, v);
    else
        v = dev.mmioRead(reg);
    if (op.onComplete)
        op.onComplete(v);
}

/** What an accelerator can ask of the fabric it is attached to. */
class FabricPort
{
  public:
    virtual ~FabricPort() = default;

    /** Issue a DMA request (address still guest-virtual). */
    virtual void dmaRequest(ccip::DmaTxnPtr txn) = 0;

    /**
     * Minimum cycles (of the accelerator clock's fabric interface)
     * between DMA injections this fabric supports: 1 for
     * pass-through, 2 under the hardware monitor (Section 6.3).
     */
    virtual std::uint32_t injectIntervalCycles() const = 0;
};

} // namespace optimus::fpga

#endif // OPTIMUS_FPGA_ACCEL_PORT_HH

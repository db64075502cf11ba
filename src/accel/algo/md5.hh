/**
 * @file
 * MD5 message digest (RFC 1321), streaming interface, as computed by
 * the MD5 benchmark accelerator.
 */

#ifndef OPTIMUS_ACCEL_ALGO_MD5_HH
#define OPTIMUS_ACCEL_ALGO_MD5_HH

#include <array>
#include <cstdint>
#include <cstddef>
#include <vector>

namespace optimus::algo {

/** Incremental MD5 hasher. */
class Md5
{
  public:
    using Digest = std::array<std::uint8_t, 16>;

    Md5() { reset(); }

    void reset();
    void update(const void *data, std::size_t len);
    Digest finish();

    /** One-shot convenience. */
    static Digest hash(const void *data, std::size_t len);

    /** Serialize internal state (for accelerator preemption). */
    std::vector<std::uint8_t> serialize() const;
    /**
     * Restore a serialize()d state. The blob may come from guest
     * memory, so a short blob or a buffer fill at or past the block
     * size panics instead of corrupting memory.
     */
    void deserialize(const std::vector<std::uint8_t> &blob);

  private:
    void processBlock(const std::uint8_t *block);

    std::uint32_t _h[4];
    std::uint64_t _totalLen;
    std::uint8_t _buf[64];
    /** Bytes held in _buf; always below the block size. */
    std::size_t _bufLen;
};

} // namespace optimus::algo

#endif // OPTIMUS_ACCEL_ALGO_MD5_HH

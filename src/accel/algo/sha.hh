/**
 * @file
 * SHA-256 and SHA-512 message digests (FIPS 180-4). SHA-512 backs the
 * SHA benchmark accelerator; SHA-256 (applied twice) backs the
 * Bitcoin miner.
 */

#ifndef OPTIMUS_ACCEL_ALGO_SHA_HH
#define OPTIMUS_ACCEL_ALGO_SHA_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace optimus::algo {

/** Incremental SHA-256. */
class Sha256
{
  public:
    using Digest = std::array<std::uint8_t, 32>;

    Sha256() { reset(); }

    void reset();
    void update(const void *data, std::size_t len);
    Digest finish();

    static Digest hash(const void *data, std::size_t len);

    /** Bitcoin-style double hash: SHA256(SHA256(data)). */
    static Digest doubleHash(const void *data, std::size_t len);

  private:
    void processBlock(const std::uint8_t *block);

    std::uint32_t _h[8];
    std::uint64_t _totalLen;
    std::uint8_t _buf[64];
    /** Bytes held in _buf; always below the block size. */
    std::size_t _bufLen;
};

/** Incremental SHA-512. */
class Sha512
{
  public:
    using Digest = std::array<std::uint8_t, 64>;

    Sha512() { reset(); }

    void reset();
    void update(const void *data, std::size_t len);
    Digest finish();

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

    std::uint64_t _h[8];
    /** Total length in bytes (128-bit length field: low word only,
     *  sufficient for simulated inputs). */
    std::uint64_t _totalLen;
    std::uint8_t _buf[128];
    /** Bytes held in _buf; always below the block size. */
    std::size_t _bufLen;
};

} // namespace optimus::algo

#endif // OPTIMUS_ACCEL_ALGO_SHA_HH

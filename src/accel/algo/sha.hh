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

#include "accel/algo/block_hash.hh"

namespace optimus::algo {

/** SHA-256's compression core. */
struct Sha256Core
{
    using Digest = std::array<std::uint8_t, 32>;
    static constexpr std::size_t kBlockBytes = 64;
    static constexpr std::size_t kLenBytes = 8;
    static constexpr bool kBigEndian = true;

    void reset();
    void compress(const std::uint8_t *block);
    Digest digest() const;

    std::uint32_t h[8] = {};
};

/** SHA-512's compression core: a 128-bit length field. */
struct Sha512Core
{
    using Digest = std::array<std::uint8_t, 64>;
    static constexpr std::size_t kBlockBytes = 128;
    static constexpr std::size_t kLenBytes = 16;
    static constexpr bool kBigEndian = true;

    void reset();
    void compress(const std::uint8_t *block);
    Digest digest() const;

    std::uint64_t h[8] = {};
};

/** Incremental SHA-256. */
using Sha256 = BlockHash<Sha256Core>;
/** Incremental SHA-512. */
using Sha512 = BlockHash<Sha512Core>;

/** Bitcoin-style double hash: SHA256(SHA256(data)). */
Sha256::Digest doubleSha256(const void *data, std::size_t len);

} // namespace optimus::algo

#endif // OPTIMUS_ACCEL_ALGO_SHA_HH

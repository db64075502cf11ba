/**
 * @file
 * MD5 message digest (RFC 1321), streaming interface, as computed by
 * the MD5 benchmark accelerator.
 */

#ifndef OPTIMUS_ACCEL_ALGO_MD5_HH
#define OPTIMUS_ACCEL_ALGO_MD5_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "accel/algo/block_hash.hh"

namespace optimus::algo {

/** MD5's compression core: the length field is little-endian. */
struct Md5Core
{
    using Digest = std::array<std::uint8_t, 16>;
    static constexpr std::size_t kBlockBytes = 64;
    static constexpr std::size_t kLenBytes = 8;
    static constexpr bool kBigEndian = false;

    void reset();
    void compress(const std::uint8_t *block);
    Digest digest() const;

    std::uint32_t h[4] = {};
};

/** Incremental MD5 hasher. */
using Md5 = BlockHash<Md5Core>;

} // namespace optimus::algo

#endif // OPTIMUS_ACCEL_ALGO_MD5_HH

/**
 * @file
 * The Merkle–Damgård framing MD5, SHA-256 and SHA-512 share: block
 * buffering, the padding, the one-shot hash and the saved state. Each
 * hash is a core of chaining words, a block compression and a digest
 * behind one BlockHash.
 */

#ifndef OPTIMUS_ACCEL_ALGO_BLOCK_HASH_HH
#define OPTIMUS_ACCEL_ALGO_BLOCK_HASH_HH

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace optimus::algo {

/**
 * Incremental hash over @p Core, which supplies:
 *  - `Digest`, `kBlockBytes`, and `kLenBytes` and `kBigEndian`, the
 *    width and byte order of the bit-length field that ends the last
 *    block;
 *  - `h`, the chaining words (an array);
 *  - `reset()`, `compress(block)` and `digest()`.
 */
template <typename Core>
class BlockHash
{
  public:
    using Digest = typename Core::Digest;
    static constexpr std::size_t kBlockBytes = Core::kBlockBytes;
    /** Bytes save() writes: the chaining words, the u64 total
     *  length, the u64 buffer fill and the block buffer. */
    static constexpr std::size_t kStateBytes =
        sizeof(Core::h) + 16 + kBlockBytes;

    BlockHash() { reset(); }

    void
    reset()
    {
        _core.reset();
        _totalLen = 0;
        _fill = 0;
    }

    void
    update(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        _totalLen += len;

        if (_fill > 0) {
            const std::size_t take =
                len < kBlockBytes - _fill ? len : kBlockBytes - _fill;
            std::memcpy(_buf + _fill, p, take);
            _fill += take;
            p += take;
            len -= take;
            if (_fill == kBlockBytes) {
                _core.compress(_buf);
                _fill = 0;
            }
        }
        for (; len >= kBlockBytes; p += kBlockBytes, len -= kBlockBytes)
            _core.compress(p);
        if (len > 0) {
            std::memcpy(_buf, p, len);
            _fill = len;
        }
    }

    /** Pad, take the digest and reset. Padding: 0x80, zeros, then the
     *  bit length in the block's last kLenBytes, in one block or, when
     *  the length no longer fits after 0x80, two. */
    Digest
    finish()
    {
        constexpr std::size_t kLenAt = kBlockBytes - Core::kLenBytes;
        _buf[_fill++] = 0x80;
        if (_fill > kLenAt) {
            std::memset(_buf + _fill, 0, kBlockBytes - _fill);
            _core.compress(_buf);
            _fill = 0;
        }
        // Zeros through the end; the length fills its low 8 bytes
        // (any wider field's high bytes are zero for simulated sizes).
        std::memset(_buf + _fill, 0, kBlockBytes - _fill);
        const std::uint64_t bits = _totalLen * 8;
        for (std::size_t i = 0; i < 8; ++i) {
            const std::size_t at = Core::kBigEndian ? kBlockBytes - 1 - i
                                                    : kLenAt + i;
            _buf[at] = static_cast<std::uint8_t>(bits >> (8 * i));
        }
        _core.compress(_buf);

        const Digest d = _core.digest();
        reset();
        return d;
    }

    static Digest
    hash(const void *data, std::size_t len)
    {
        BlockHash s;
        s.update(data, len);
        return s.finish();
    }

    /** Save the state (for accelerator preemption) through the
     *  job-state codec, in kStateBytes. */
    template <typename Writer>
    void
    save(Writer &w) const
    {
        w.bytes(_core.h, sizeof(_core.h));
        w.u64(_totalLen);
        w.u64(_fill);
        w.bytes(_buf, sizeof(_buf));
    }

    /** Inverse of save(). The state comes back from tenant memory:
     *  the reader fails a short one, and a buffer fill at or past the
     *  block size, which finish() relies on. */
    template <typename Reader>
    void
    restore(Reader &r)
    {
        r.bytes(_core.h, sizeof(_core.h));
        _totalLen = r.u64();
        _fill = r.below(kBlockBytes, "buffer fill");
        r.bytes(_buf, sizeof(_buf));
    }

  private:
    Core _core;
    std::uint64_t _totalLen = 0;
    std::uint8_t _buf[kBlockBytes] = {};
    /** Bytes held in _buf; always below the block size. */
    std::size_t _fill = 0;
};

} // namespace optimus::algo

#endif // OPTIMUS_ACCEL_ALGO_BLOCK_HASH_HH

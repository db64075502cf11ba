/**
 * @file
 * Cryptography and hashing benchmark accelerators: AES, MD5, SHA
 * (SHA-512), and the Bitcoin miner (BTC).
 */

#ifndef OPTIMUS_ACCEL_CRYPTO_ACCELS_HH
#define OPTIMUS_ACCEL_CRYPTO_ACCELS_HH

#include <cstring>
#include <memory>
#include <optional>

#include "accel/algo/aes128.hh"
#include "accel/algo/md5.hh"
#include "accel/algo/sha.hh"
#include "accel/streaming_accelerator.hh"

namespace optimus::accel {

/**
 * AES-128 ECB encryptor: streams SRC..SRC+LEN, encrypts each 64-byte
 * line (four blocks), and writes it to DST at the same offset.
 * App registers: SRC, DST, LEN, APP3/APP4 = key low/high 8 bytes.
 */
class AesAccel : public StreamingAccelerator
{
  public:
    static constexpr std::uint32_t kRegKeyLo = 3;
    static constexpr std::uint32_t kRegKeyHi = 4;

    AesAccel(sim::EventQueue &eq, const sim::PlatformParams &params,
             std::string name, sim::Scope scope = {});

  protected:
    void streamBegin() override;
    void consumeLine(std::uint64_t offset, const std::uint8_t *data,
                     std::uint32_t bytes) override;
    void restoreTransformState(StateReader &r) override
    {
        (void)r;
        // The expanded key is derived state: rebuild it from the
        // (already restored) key registers on resume.
        streamBegin();
    }
    std::uint64_t transformStateCapacity() const override
    {
        return 0;
    }

  private:
    std::optional<algo::Aes128> _cipher;
};

/**
 * A hasher, MD5 or SHA-512 (@p Hash): streams SRC..SRC+LEN through
 * the digest; at the end writes the digest to DST (when set) and
 * latches its first 8 bytes into RESULT. Its saved state is the
 * hash's own, under @p label in restore failures.
 */
template <typename Hash>
class HashAccel : public StreamingAccelerator
{
  public:
    HashAccel(sim::EventQueue &eq, const sim::PlatformParams &params,
              std::string name, std::uint64_t freq_mhz, Tuning tuning,
              const char *label, std::uint64_t state_capacity,
              sim::Scope scope)
        : StreamingAccelerator(eq, params, std::move(name), freq_mhz,
                               tuning, scope),
          _label(label),
          _stateCapacity(state_capacity)
    {
    }

  protected:
    void streamBegin() override { _hash.reset(); }
    void
    consumeLine(std::uint64_t offset, const std::uint8_t *data,
                std::uint32_t bytes) override
    {
        (void)offset;
        _hash.update(data, bytes);
    }
    void
    streamEnd() override
    {
        const typename Hash::Digest digest = _hash.finish();
        std::memcpy(&_result8, digest.data(), 8);
        if (dst().value() != 0)
            emit(dst(), digest.data(),
                 static_cast<std::uint32_t>(digest.size()));
    }
    std::uint64_t resultValue() const override { return _result8; }
    void saveTransformState(StateWriter &w) const override
    {
        _hash.save(w);
    }
    void
    restoreTransformState(StateReader &r) override
    {
        r.label(_label);
        _hash.restore(r);
    }
    std::uint64_t transformStateCapacity() const override
    {
        return _stateCapacity;
    }

  private:
    const char *_label;
    std::uint64_t _stateCapacity;
    Hash _hash;
    std::uint64_t _result8 = 0;
};

/**
 * Bitcoin miner: reads an 80-byte block-header template at SRC
 * (nonce field at bytes 76..79), then scans nonces from APP3 until
 * double-SHA256(header) has at least APP4 leading zero bits. RESULT
 * is the winning nonce. Almost no memory traffic — compute-bound,
 * like the original.
 */
class BtcAccel : public Accelerator
{
  public:
    static constexpr std::uint32_t kRegSrc = 0;
    static constexpr std::uint32_t kRegStartNonce = 3;
    static constexpr std::uint32_t kRegZeroBits = 4;

    /** Nonces tried per scheduling quantum (and cycles it costs). */
    static constexpr std::uint32_t kBatch = 256;

    BtcAccel(sim::EventQueue &eq, const sim::PlatformParams &params,
             std::string name, sim::Scope scope = {});

  protected:
    void onStart() override;
    void onSoftReset() override;
    void saveArchState(StateWriter &w) const override;
    void restoreArchState(StateReader &r) override;
    void onResumed() override;
    std::uint64_t archStateCapacity() const override { return 128; }

  private:
    void loadHeader();
    void mineBatch();
    static bool hasLeadingZeroBits(const algo::Sha256::Digest &d,
                                   std::uint32_t bits);

    std::array<std::uint8_t, 80> _header{};
    std::uint32_t _headerLinesLoaded = 0;
    std::uint32_t _nonce = 0;
    bool _headerLoaded = false;
};

} // namespace optimus::accel

#endif // OPTIMUS_ACCEL_CRYPTO_ACCELS_HH

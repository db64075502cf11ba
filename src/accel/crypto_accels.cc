#include "accel/crypto_accels.hh"

#include <cstring>

namespace optimus::accel {

// ------------------------------------------------------------------ AES

AesAccel::AesAccel(sim::EventQueue &eq,
                   const sim::PlatformParams &params, std::string name,
                   sim::Scope scope)
    : StreamingAccelerator(eq, params, std::move(name), 200,
                           Tuning{64, 11}, scope)
{
}

void
AesAccel::streamBegin()
{
    algo::Aes128::Key key{};
    std::uint64_t lo = appReg(kRegKeyLo);
    std::uint64_t hi = appReg(kRegKeyHi);
    std::memcpy(key.data(), &lo, 8);
    std::memcpy(key.data() + 8, &hi, 8);
    _cipher.emplace(key);
}

void
AesAccel::consumeLine(std::uint64_t offset, const std::uint8_t *data,
                      std::uint32_t bytes)
{
    std::uint8_t out[sim::kCacheLineBytes];
    std::memcpy(out, data, bytes);
    _cipher->encryptEcb(out, bytes - bytes % 16);
    emit(dst() + offset, out, bytes);
}

// ------------------------------------------------------------------ BTC

BtcAccel::BtcAccel(sim::EventQueue &eq,
                   const sim::PlatformParams &params, std::string name,
                   sim::Scope scope)
    : Accelerator(eq, params, std::move(name), 100, scope)
{
    dma().setMaxOutstanding(4);
}

void
BtcAccel::onStart()
{
    _headerLoaded = false;
    _headerLinesLoaded = 0;
    _nonce = static_cast<std::uint32_t>(appReg(kRegStartNonce));
    loadHeader();
}

void
BtcAccel::onSoftReset()
{
    _headerLoaded = false;
    _headerLinesLoaded = 0;
    _nonce = 0;
}

void
BtcAccel::loadHeader()
{
    mem::Gva base(appReg(kRegSrc));
    for (std::uint32_t line = 0; line < 2; ++line) {
        std::uint32_t bytes = line == 0 ? 64 : 16;
        dma().read(base + line * 64ULL, bytes,
                   [this, line, bytes](ccip::DmaTxn &t) {
                       if (t.error) {
                           fail();
                           return;
                       }
                       std::memcpy(_header.data() + line * 64,
                                   t.data.data(), bytes);
                       if (++_headerLinesLoaded == 2) {
                           _headerLoaded = true;
                           mineBatch();
                       }
                   });
    }
}

bool
BtcAccel::hasLeadingZeroBits(const algo::Sha256::Digest &d,
                             std::uint32_t bits)
{
    for (std::uint32_t i = 0; i < bits; i += 8) {
        std::uint8_t byte = d[i / 8];
        std::uint32_t in_byte = bits - i >= 8 ? 8 : bits - i;
        std::uint8_t mask = static_cast<std::uint8_t>(
            0xff << (8 - in_byte));
        if (byte & mask)
            return false;
    }
    return true;
}

void
BtcAccel::mineBatch()
{
    if (!running() || !_headerLoaded)
        return;

    auto zero_bits = static_cast<std::uint32_t>(appReg(kRegZeroBits));
    std::array<std::uint8_t, 80> hdr = _header;
    for (std::uint32_t i = 0; i < kBatch; ++i) {
        std::memcpy(hdr.data() + 76, &_nonce, 4);
        algo::Sha256::Digest d = algo::doubleSha256(hdr.data(), hdr.size());
        if (hasLeadingZeroBits(d, zero_bits)) {
            finish(_nonce);
            return;
        }
        ++_nonce;
        bumpProgress();
    }
    // One nonce per cycle through the pipelined core.
    scheduleGuarded(kBatch, [this]() { mineBatch(); });
}

void
BtcAccel::saveArchState(StateWriter &w) const
{
    w.bytes(_header.data(), _header.size());
    w.u32(_nonce);
    w.u32(_headerLoaded ? 1 : 0);
}

void
BtcAccel::restoreArchState(StateReader &r)
{
    r.label("BTC");
    r.bytes(_header.data(), _header.size());
    _nonce = r.u32();
    _headerLoaded = r.u32() != 0;
    _headerLinesLoaded = _headerLoaded ? 2 : 0;
}

void
BtcAccel::onResumed()
{
    if (_headerLoaded) {
        mineBatch();
    } else {
        onStart();
    }
}

} // namespace optimus::accel

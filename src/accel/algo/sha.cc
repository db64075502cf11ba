#include "accel/algo/sha.hh"

#include <bit>
#include <cstring>
#include <utility>

namespace optimus::algo {

namespace {

constexpr std::uint32_t kK256[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
    0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
    0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
    0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
    0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
    0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
    0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
    0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint64_t kK512[80] = {
    0x428a2f98d728ae22ULL, 0x7137449123ef65cdULL,
    0xb5c0fbcfec4d3b2fULL, 0xe9b5dba58189dbbcULL,
    0x3956c25bf348b538ULL, 0x59f111f1b605d019ULL,
    0x923f82a4af194f9bULL, 0xab1c5ed5da6d8118ULL,
    0xd807aa98a3030242ULL, 0x12835b0145706fbeULL,
    0x243185be4ee4b28cULL, 0x550c7dc3d5ffb4e2ULL,
    0x72be5d74f27b896fULL, 0x80deb1fe3b1696b1ULL,
    0x9bdc06a725c71235ULL, 0xc19bf174cf692694ULL,
    0xe49b69c19ef14ad2ULL, 0xefbe4786384f25e3ULL,
    0x0fc19dc68b8cd5b5ULL, 0x240ca1cc77ac9c65ULL,
    0x2de92c6f592b0275ULL, 0x4a7484aa6ea6e483ULL,
    0x5cb0a9dcbd41fbd4ULL, 0x76f988da831153b5ULL,
    0x983e5152ee66dfabULL, 0xa831c66d2db43210ULL,
    0xb00327c898fb213fULL, 0xbf597fc7beef0ee4ULL,
    0xc6e00bf33da88fc2ULL, 0xd5a79147930aa725ULL,
    0x06ca6351e003826fULL, 0x142929670a0e6e70ULL,
    0x27b70a8546d22ffcULL, 0x2e1b21385c26c926ULL,
    0x4d2c6dfc5ac42aedULL, 0x53380d139d95b3dfULL,
    0x650a73548baf63deULL, 0x766a0abb3c77b2a8ULL,
    0x81c2c92e47edaee6ULL, 0x92722c851482353bULL,
    0xa2bfe8a14cf10364ULL, 0xa81a664bbc423001ULL,
    0xc24b8b70d0f89791ULL, 0xc76c51a30654be30ULL,
    0xd192e819d6ef5218ULL, 0xd69906245565a910ULL,
    0xf40e35855771202aULL, 0x106aa07032bbd1b8ULL,
    0x19a4c116b8d2d0c8ULL, 0x1e376c085141ab53ULL,
    0x2748774cdf8eeb99ULL, 0x34b0bcb5e19b48a8ULL,
    0x391c0cb3c5c95a63ULL, 0x4ed8aa4ae3418acbULL,
    0x5b9cca4f7763e373ULL, 0x682e6ff3d6b2b8a3ULL,
    0x748f82ee5defb2fcULL, 0x78a5636f43172f60ULL,
    0x84c87814a1f0ab72ULL, 0x8cc702081a6439ecULL,
    0x90befffa23631e28ULL, 0xa4506cebde82bde9ULL,
    0xbef9a3f7b2c67915ULL, 0xc67178f2e372532bULL,
    0xca273eceea26619cULL, 0xd186b8c721c0c207ULL,
    0xeada7dd6cde0eb1eULL, 0xf57d4f7fee6ed178ULL,
    0x06f067aa72176fbaULL, 0x0a637dc5a2c898a6ULL,
    0x113f9804bef90daeULL, 0x1b710b35131c471bULL,
    0x28db77f523047d84ULL, 0x32caab7b40c72493ULL,
    0x3c9ebe0a15c9bebcULL, 0x431d67c49c100d4cULL,
    0x4cc5d4becb3e42b6ULL, 0x597f299cfc657e2aULL,
    0x5fcb6fab3ad6faecULL, 0x6c44198c4a475817ULL};

std::uint32_t
rotr32(std::uint32_t x, std::uint32_t n)
{
    return (x >> n) | (x << (32 - n));
}

std::uint64_t
rotr64(std::uint64_t x, std::uint64_t n)
{
    return (x >> n) | (x << (64 - n));
}

/** Big-endian 64-bit load and store, the same on any host. */
std::uint64_t
loadBe64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    std::memcpy(&v, p, 8);
    if constexpr (std::endian::native == std::endian::little)
        v = __builtin_bswap64(v);
    return v;
}

void
storeBe64(std::uint8_t *p, std::uint64_t v)
{
    if constexpr (std::endian::native == std::endian::little)
        v = __builtin_bswap64(v);
    std::memcpy(p, &v, 8);
}

/**
 * SHA-512 round @p I. The working variables a..h rotate one slot of
 * @p s per round instead of being shifted, and @p w holds the last 16
 * message-schedule words: from round 16 on, W[I] replaces W[I-16] in
 * slot I % 16. With I a constant, every index below is one too, so
 * the compiler scalarizes @p s and @p w instead of indexing memory.
 */
template <unsigned I>
[[gnu::always_inline]] inline void
round512(std::uint64_t (&s)[8], std::uint64_t (&w)[16])
{
    const std::uint64_t a = s[(0 - I) & 7], b = s[(1 - I) & 7];
    const std::uint64_t c = s[(2 - I) & 7], e = s[(4 - I) & 7];
    const std::uint64_t f = s[(5 - I) & 7], g = s[(6 - I) & 7];
    std::uint64_t &d = s[(3 - I) & 7];
    std::uint64_t &h = s[(7 - I) & 7];
    if constexpr (I >= 16) {
        const std::uint64_t w2 = w[(I - 2) & 15];
        const std::uint64_t w15 = w[(I - 15) & 15];
        w[I & 15] += (rotr64(w2, 19) ^ rotr64(w2, 61) ^ (w2 >> 6)) +
                     w[(I - 7) & 15] +
                     (rotr64(w15, 1) ^ rotr64(w15, 8) ^ (w15 >> 7));
    }
    const std::uint64_t t1 =
        h + (rotr64(e, 14) ^ rotr64(e, 18) ^ rotr64(e, 41)) +
        (g ^ (e & (f ^ g))) + kK512[I] + w[I & 15];
    d += t1;
    h = t1 + (rotr64(a, 28) ^ rotr64(a, 34) ^ rotr64(a, 39)) +
        ((a & b) | (c & (a | b)));
}

template <unsigned... I>
[[gnu::always_inline]] inline void
rounds512(std::uint64_t (&s)[8], std::uint64_t (&w)[16],
          std::integer_sequence<unsigned, I...>)
{
    (round512<I>(s, w), ...);
}

} // namespace

// --------------------------------------------------------------- SHA-256

void
Sha256Core::reset()
{
    static constexpr std::uint32_t init[8] = {
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    std::memcpy(h, init, sizeof(h));
}

void
Sha256Core::compress(const std::uint8_t *block)
{
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
        w[i] = (std::uint32_t(block[i * 4]) << 24) |
               (std::uint32_t(block[i * 4 + 1]) << 16) |
               (std::uint32_t(block[i * 4 + 2]) << 8) |
               std::uint32_t(block[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
        std::uint32_t s0 = rotr32(w[i - 15], 7) ^ rotr32(w[i - 15], 18) ^
                           (w[i - 15] >> 3);
        std::uint32_t s1 = rotr32(w[i - 2], 17) ^ rotr32(w[i - 2], 19) ^
                           (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
    std::uint32_t e = h[4], f = h[5], g = h[6], hh = h[7];
    for (int i = 0; i < 64; ++i) {
        std::uint32_t s1 =
            rotr32(e, 6) ^ rotr32(e, 11) ^ rotr32(e, 25);
        std::uint32_t ch = (e & f) ^ (~e & g);
        std::uint32_t t1 = hh + s1 + ch + kK256[i] + w[i];
        std::uint32_t s0 =
            rotr32(a, 2) ^ rotr32(a, 13) ^ rotr32(a, 22);
        std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        std::uint32_t t2 = s0 + maj;
        hh = g;
        g = f;
        f = e;
        e = d + t1;
        d = c;
        c = b;
        b = a;
        a = t1 + t2;
    }
    h[0] += a;
    h[1] += b;
    h[2] += c;
    h[3] += d;
    h[4] += e;
    h[5] += f;
    h[6] += g;
    h[7] += hh;
}

Sha256Core::Digest
Sha256Core::digest() const
{
    Digest d;
    for (int i = 0; i < 8; ++i) {
        d[i * 4] = static_cast<std::uint8_t>(h[i] >> 24);
        d[i * 4 + 1] = static_cast<std::uint8_t>(h[i] >> 16);
        d[i * 4 + 2] = static_cast<std::uint8_t>(h[i] >> 8);
        d[i * 4 + 3] = static_cast<std::uint8_t>(h[i]);
    }
    return d;
}

Sha256::Digest
doubleSha256(const void *data, std::size_t len)
{
    const Sha256::Digest first = Sha256::hash(data, len);
    return Sha256::hash(first.data(), first.size());
}

// --------------------------------------------------------------- SHA-512

void
Sha512Core::reset()
{
    static constexpr std::uint64_t init[8] = {
        0x6a09e667f3bcc908ULL, 0xbb67ae8584caa73bULL,
        0x3c6ef372fe94f82bULL, 0xa54ff53a5f1d36f1ULL,
        0x510e527fade682d1ULL, 0x9b05688c2b3e6c1fULL,
        0x1f83d9abfb41bd6bULL, 0x5be0cd19137e2179ULL};
    std::memcpy(h, init, sizeof(h));
}

void
Sha512Core::compress(const std::uint8_t *block)
{
    std::uint64_t w[16];
    for (int i = 0; i < 16; ++i)
        w[i] = loadBe64(block + 8 * i);
    std::uint64_t s[8];
    std::memcpy(s, h, sizeof(s));
    rounds512(s, w, std::make_integer_sequence<unsigned, 80>{});
    // 80 rounds rotate the slots ten full turns: s[i] is back to
    // holding working variable i.
    for (int i = 0; i < 8; ++i)
        h[i] += s[i];
}

Sha512Core::Digest
Sha512Core::digest() const
{
    Digest d;
    for (int i = 0; i < 8; ++i)
        storeBe64(d.data() + 8 * i, h[i]);
    return d;
}

} // namespace optimus::algo

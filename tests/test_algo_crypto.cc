/**
 * @file
 * Known-answer tests for the cryptographic kernels: FIPS-197 AES
 * vectors, RFC 1321 MD5 vectors, FIPS 180-4 SHA vectors, digests at
 * the padding boundaries (generated with Python's hashlib), and the
 * save/restore round-trips through the job-state codec used by
 * accelerator preemption, including the saved layout and the
 * rejection of a malformed state.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "accel/algo/aes128.hh"
#include "accel/algo/md5.hh"
#include "accel/algo/sha.hh"
#include "accel/state_blob.hh"

using namespace optimus::algo;
using optimus::accel::StateReader;
using optimus::accel::StateWriter;

namespace {

std::string
hex(const std::uint8_t *data, std::size_t len)
{
    static const char digits[] = "0123456789abcdef";
    std::string s;
    for (std::size_t i = 0; i < len; ++i) {
        s.push_back(digits[data[i] >> 4]);
        s.push_back(digits[data[i] & 0xf]);
    }
    return s;
}

/** Bytes i % 251: no period that lines up with a block size. */
std::string
pattern(std::size_t len)
{
    std::string s(len, 0);
    for (std::size_t i = 0; i < len; ++i)
        s[i] = static_cast<char>(i % 251);
    return s;
}

template <typename Hash>
std::string
hexHash(const std::string &in)
{
    auto d = Hash::hash(in.data(), in.size());
    return hex(d.data(), d.size());
}

/** @p h's state as a PREEMPT saves it. */
template <typename Hash>
std::vector<std::uint8_t>
saved(const Hash &h)
{
    std::vector<std::uint8_t> blob(Hash::kStateBytes);
    StateWriter w(blob.data(), blob.size());
    h.save(w);
    return blob;
}

/** Restore @p blob into @p h as a RESUME reads it, under @p label. */
template <typename Hash>
void
restore(Hash &h, const std::vector<std::uint8_t> &blob,
        const char *label = "hash")
{
    StateReader r(blob.data(), blob.size());
    r.label(label);
    h.restore(r);
}

TEST(Aes128Test, Fips197AppendixB)
{
    // FIPS-197 Appendix B example.
    Aes128::Key key = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2,
                       0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
                       0x4f, 0x3c};
    std::uint8_t block[16] = {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a,
                              0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2,
                              0xe0, 0x37, 0x07, 0x34};
    Aes128 aes(key);
    aes.encryptBlock(block);
    EXPECT_EQ(hex(block, 16), "3925841d02dc09fbdc118597196a0b32");
}

TEST(Aes128Test, Fips197AppendixCExample)
{
    // FIPS-197 Appendix C.1: key 000102...0f, plaintext 00112233...
    Aes128::Key key;
    for (int i = 0; i < 16; ++i)
        key[static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(i);
    std::uint8_t block[16];
    for (int i = 0; i < 16; ++i)
        block[i] = static_cast<std::uint8_t>(i * 0x11);
    Aes128 aes(key);
    aes.encryptBlock(block);
    EXPECT_EQ(hex(block, 16), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes128Test, EcbEncryptsEveryBlockIndependently)
{
    Aes128::Key key{};
    Aes128 aes(key);
    std::uint8_t buf[64] = {};
    aes.encryptEcb(buf, sizeof(buf));
    // Identical plaintext blocks yield identical ciphertext blocks.
    EXPECT_EQ(0, std::memcmp(buf, buf + 16, 16));
    EXPECT_EQ(0, std::memcmp(buf, buf + 32, 16));
}

TEST(Md5Test, Rfc1321Vectors)
{
    auto check = [](const std::string &in, const std::string &want) {
        Md5::Digest d = Md5::hash(in.data(), in.size());
        EXPECT_EQ(hex(d.data(), d.size()), want) << "input: " << in;
    };
    check("", "d41d8cd98f00b204e9800998ecf8427e");
    check("a", "0cc175b9c0f1b6a831c399e269772661");
    check("abc", "900150983cd24fb0d6963f7d28e17f72");
    check("message digest", "f96b697d7cb7938d525a2f31aaf161d0");
    check("abcdefghijklmnopqrstuvwxyz",
          "c3fcd3d76192e4007dfb496cca67e13b");
    check("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123"
          "456789",
          "d174ab98d277d9f5a5611c2c9f419d9f");
    check("1234567890123456789012345678901234567890123456789012345"
          "6789012345678901234567890",
          "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5Test, PaddingBoundaries)
{
    // 55 is the longest input padded within one block; from 56 on
    // the length field spills into a second.
    EXPECT_EQ(hexHash<Md5>(pattern(55)),
              "6912ee65fff2d9f9ce2508cddf8bcda0");
    EXPECT_EQ(hexHash<Md5>(pattern(56)),
              "51fdd1acda72405dfdfa03fcb85896d7");
    EXPECT_EQ(hexHash<Md5>(pattern(57)),
              "5320ef4c17ef34a0cf2db763338d25eb");
    EXPECT_EQ(hexHash<Md5>(pattern(63)),
              "48a6295221902e8e0938f773a7185e72");
    EXPECT_EQ(hexHash<Md5>(pattern(64)),
              "b2d3f56bc197fd985d5965079b5e7148");
    EXPECT_EQ(hexHash<Md5>(pattern(65)),
              "8bd7053801c768420faf816fadba971c");
}

TEST(Md5Test, IncrementalMatchesOneShot)
{
    std::string input(1000, 'x');
    for (std::size_t i = 0; i < input.size(); ++i)
        input[i] = static_cast<char>('a' + i % 26);

    Md5 inc;
    for (std::size_t off = 0; off < input.size(); off += 37) {
        std::size_t n = std::min<std::size_t>(37, input.size() - off);
        inc.update(input.data() + off, n);
    }
    EXPECT_EQ(inc.finish(), Md5::hash(input.data(), input.size()));
}

TEST(Md5Test, SaveRestoreRoundTrip)
{
    std::string part1 = "The quick brown fox ";
    std::string part2 = "jumps over the lazy dog";

    Md5 a;
    a.update(part1.data(), part1.size());
    auto blob = saved(a);

    Md5 b;
    restore(b, blob);
    b.update(part2.data(), part2.size());
    a.update(part2.data(), part2.size());
    EXPECT_EQ(a.finish(), b.finish());
}

TEST(Md5Test, RestoreRejectsMalformedState)
{
    Md5 md5;
    std::vector<std::uint8_t> blob = saved(md5);
    std::vector<std::uint8_t> short_blob(blob.begin(), blob.end() - 1);
    EXPECT_DEATH(restore(md5, short_blob, "MD5"), "short MD5 state");

    // Buffer fill after the state words and the total length.
    const std::uint64_t full = 64;
    std::memcpy(blob.data() + 16 + 8, &full, 8);
    EXPECT_DEATH(restore(md5, blob, "MD5"),
                 "MD5 state buffer fill 64 out of range");
}

TEST(Sha256Test, Fips180Vectors)
{
    auto d1 = Sha256::hash("abc", 3);
    EXPECT_EQ(hex(d1.data(), d1.size()),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410f"
              "f61f20015ad");
    auto d2 = Sha256::hash("", 0);
    EXPECT_EQ(hex(d2.data(), d2.size()),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495"
              "991b7852b855");
    std::string two_blocks =
        "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
    auto d3 = Sha256::hash(two_blocks.data(), two_blocks.size());
    EXPECT_EQ(hex(d3.data(), d3.size()),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ec"
              "edd419db06c1");
}

TEST(Sha256Test, PaddingBoundaries)
{
    EXPECT_EQ(hexHash<Sha256>(pattern(55)),
              "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d4"
              "5ae59b598b59");
    EXPECT_EQ(hexHash<Sha256>(pattern(56)),
              "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de"
              "82a60895f562");
    EXPECT_EQ(hexHash<Sha256>(pattern(57)),
              "2fe741af801cc238602ac0ec6a7b0c3a8a87c7fc7d7f02a3fe03"
              "d1c12eac4d8f");
    EXPECT_EQ(hexHash<Sha256>(pattern(63)),
              "29af2686fd53374a36b0846694cc342177e428d1647515f07878"
              "4d69cdb9e488");
    EXPECT_EQ(hexHash<Sha256>(pattern(64)),
              "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c44"
              "7cd1d9151108");
    EXPECT_EQ(hexHash<Sha256>(pattern(65)),
              "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc07507"
              "4f2fabb31781");
}

TEST(Sha256Test, DoubleHashMatchesComposition)
{
    std::string msg = "bitcoin block header";
    auto once = Sha256::hash(msg.data(), msg.size());
    auto twice = Sha256::hash(once.data(), once.size());
    EXPECT_EQ(doubleSha256(msg.data(), msg.size()), twice);
}

TEST(Sha512Test, Fips180Vectors)
{
    auto d1 = Sha512::hash("abc", 3);
    EXPECT_EQ(hex(d1.data(), d1.size()),
              "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9e"
              "eee64b55d39a2192992a274fc1a836ba3c23a3feebbd454d4423"
              "643ce80e2a9ac94fa54ca49f");
    auto d2 = Sha512::hash("", 0);
    EXPECT_EQ(hex(d2.data(), d2.size()),
              "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4"
              "a921d36ce9ce47d0d13c5d85f2b0ff8318d2877eec2f63b931bd"
              "47417a81a538327af927da3e");
    // 112 bytes: the length field spills into a second block.
    EXPECT_EQ(hexHash<Sha512>("abcdefghbcdefghicdefghijdefghijkefghijkl"
                              "fghijklmghijklmnhijklmnoijklmnopjklmnopq"
                              "klmnopqrlmnopqrsmnopqrstnopqrstu"),
              "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299"
              "aeadb6889018501d289e4900f7e4331b99dec4b5433ac7d329ee"
              "b6dd26545e96e55b874be909");
    EXPECT_EQ(hexHash<Sha512>(std::string(1000000, 'a')),
              "e718483d0ce769644e2e42c7bc15b4638e1f98b13b2044285632"
              "a803afa973ebde0ff244877ea60a4cb0432ce577c31beb009c5c"
              "2c49aa2e4eadb217ad8cc09b");
}

TEST(Sha512Test, PaddingBoundaries)
{
    // 111 is the longest input padded within one block; from 112 on
    // the length field spills into a second.
    EXPECT_EQ(hexHash<Sha512>(pattern(111)),
              "a1a111449b198d9b1f538bad7f3fc1022b3a5b1a5e90a0bc860d"
              "e8512746cbc31599e6c834de3a3235327af0b51ff57bf7acf197"
              "4a73014d9c3953812edc7c8d");
    EXPECT_EQ(hexHash<Sha512>(pattern(112)),
              "c5fbd731d19d2ae1180f001be72c2c1aaba1d7b094b3748880e2"
              "4593b8e117a750e11c1bd867cc2f96dace8c8b74abd2d5c4f236"
              "be444e77d30d1916174070b9");
    EXPECT_EQ(hexHash<Sha512>(pattern(113)),
              "61b2e77db697dfe5571fff3ed06bd60c41e1e7b7c08a80de01cb"
              "16526d9a9a52d690dfbe792278a60f6e2b4c57a97c729773f26e"
              "258d2393890c985d645f6715");
    EXPECT_EQ(hexHash<Sha512>(pattern(127)),
              "eab89674feaa34e27aebeeff3c0a4d70070bb872d5e9f186cf1d"
              "bbdee517b6e35724d629ff025a5b07185e911ada7e3c8acf830a"
              "a0e4f71777bd2d44f504f7f0");
    EXPECT_EQ(hexHash<Sha512>(pattern(128)),
              "1dffd5e3adb71d45d2245939665521ae001a317a03720a45732b"
              "a1900ca3b8351fc5c9b4ca513eba6f80bc7b1d1fdad4abd13491"
              "cb824d61b08d8c0e1561b3f7");
    EXPECT_EQ(hexHash<Sha512>(pattern(129)),
              "1d9da57fbbdab09afb3506ab2d223d06109d65c1c8ad197f5013"
              "8f714bc4c3f2fe5787922639c680acad1c651f955990425954ce"
              "2cba0c5cc83f2667d878eb0f");
    EXPECT_EQ(hexHash<Sha512>(pattern(239)),
              "cb4c7fd522756d5781ad3a4f590a1d862906b960e7720136cb3f"
              "b36b563caa1ea5689134291fa79c80ccc2b4092b41df32ebdcb3"
              "6dbe79db483440228c1622a8");
    EXPECT_EQ(hexHash<Sha512>(pattern(240)),
              "6c48466c9f6c07e4ab762c696b7eeb35cfe236fca73683e5fab8"
              "73ac3489b4d2eb3d7afcce7e8165dbbf37aded3b5b0c889c0b7e"
              "0f1790a8330d8677429d91a5");
}

TEST(Sha512Test, RestoreRejectsMalformedState)
{
    Sha512 sha;
    std::vector<std::uint8_t> blob = saved(sha);
    std::vector<std::uint8_t> short_blob(blob.begin(), blob.end() - 1);
    EXPECT_DEATH(restore(sha, short_blob, "SHA-512"),
                 "short SHA-512 state");

    // Buffer fill after the state words and the total length.
    const std::uint64_t full = 128;
    std::memcpy(blob.data() + 64 + 8, &full, 8);
    EXPECT_DEATH(restore(sha, blob, "SHA-512"),
                 "SHA-512 state buffer fill 128 out of range");
}

template <typename Hash>
class BlockHashTest : public ::testing::Test
{
};
using Hashes = ::testing::Types<Md5, Sha256, Sha512>;
TYPED_TEST_SUITE(BlockHashTest, Hashes);

TYPED_TEST(BlockHashTest, IncrementalAndSaveRestoreAtEverySplit)
{
    // Splitting at every offset of a 300-byte input leaves every
    // buffer fill below the block size in the state, on both sides
    // of the padding's length boundary.
    using Hash = TypeParam;
    const std::string input = pattern(300);
    const typename Hash::Digest want =
        Hash::hash(input.data(), input.size());
    for (std::size_t k = 0; k <= input.size(); ++k) {
        const char *rest = input.data() + k;
        const std::size_t rest_len = input.size() - k;
        Hash a;
        a.update(input.data(), k);
        const std::vector<std::uint8_t> blob = saved(a);
        Hash b;
        restore(b, blob);
        Hash prefix;
        restore(prefix, blob);
        a.update(rest, rest_len);
        b.update(rest, rest_len);
        EXPECT_EQ(a.finish(), want) << "split at " << k;
        EXPECT_EQ(b.finish(), want) << "restored at " << k;
        EXPECT_EQ(prefix.finish(), Hash::hash(input.data(), k))
            << "finished at " << k;
    }
}

/** A hash fed the first 10 bytes of @p input, then the rest: every
 *  byte of its block buffer has been written. */
template <typename Hash>
Hash
fed(const std::string &input)
{
    Hash h;
    h.update(input.data(), 10);
    h.update(input.data() + 10, input.size() - 10);
    return h;
}

/** The saved layout of fed(@p input): the chaining @p words in host
 *  order, the u64 total length, the u64 buffer fill, then the block
 *  buffer, which holds the tail after what the last full block left. */
template <typename Hash, typename Word, std::size_t N>
std::vector<std::uint8_t>
layout(const Word (&words)[N], const std::string &input)
{
    const std::size_t block = Hash::kBlockBytes;
    const std::uint64_t total = input.size();
    const std::uint64_t fill = total % block;
    std::vector<std::uint8_t> blob(Hash::kStateBytes);
    std::uint8_t *p = blob.data();
    std::memcpy(p, words, sizeof(words));
    std::memcpy(p + sizeof(words), &total, 8);
    std::memcpy(p + sizeof(words) + 8, &fill, 8);
    p += sizeof(words) + 16;
    std::memcpy(p, input.data() + total - fill, fill);
    std::memcpy(p + fill, input.data() + total - block, block - fill);
    return blob;
}

TEST(HashStateTest, SavedBytesKeepTheirLayout)
{
    // Chaining words after one compressed block of pattern(100) and
    // pattern(200), as the saved state has always recorded them.
    const std::uint32_t md5_words[4] = {0x9144d9ca, 0xd901e4c9,
                                        0x72fc5b38, 0x625ff51e};
    const std::uint64_t sha_words[8] = {
        0x8e03953cd57cd687ULL, 0x9321270afa70c582ULL,
        0x7bb5b69be59a8f01ULL, 0x30147e94f2aedf7bULL,
        0xdc01c56c92343ca8ULL, 0xbd837bb7f0208f5aULL,
        0x23e155694516b6f1ULL, 0x47099d491a30b151ULL};
    EXPECT_EQ(saved(fed<Md5>(pattern(100))),
              layout<Md5>(md5_words, pattern(100)));
    EXPECT_EQ(saved(fed<Sha512>(pattern(200))),
              layout<Sha512>(sha_words, pattern(200)));
}

} // namespace

#include "hv/workloads.hh"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <optional>
#include <unordered_map>
#include <vector>

#include "accel/algo/aes128.hh"
#include "accel/algo/image.hh"
#include "accel/algo/md5.hh"
#include "accel/algo/reed_solomon.hh"
#include "accel/algo/sha.hh"
#include "accel/algo/signal.hh"
#include "accel/algo/smith_waterman.hh"
#include "accel/crypto_accels.hh"
#include "accel/linkedlist_accel.hh"
#include "accel/membench_accel.hh"
#include "accel/image_accels.hh"
#include "accel/signal_accels.hh"
#include "accel/sssp_accel.hh"
#include "accel/streaming_accelerator.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace optimus::hv::workload {

namespace {

namespace sreg = accel::stream_reg;

std::vector<std::uint8_t>
randomBytes(std::uint64_t n, std::uint64_t seed)
{
    sim::Rng rng(seed);
    std::vector<std::uint8_t> v(n);
    for (std::uint64_t i = 0; i < n; i += 8) {
        std::uint64_t word = rng.next();
        std::memcpy(v.data() + i, &word,
                    std::min<std::uint64_t>(8, n - i));
    }
    return v;
}

std::uint64_t
roundUp(std::uint64_t v, std::uint64_t g)
{
    return (v + g - 1) / g * g;
}

/** Common stream-in / stream-out scaffolding. */
class StreamWorkloadBase : public Workload
{
  public:
    StreamWorkloadBase(AccelHandle &h, std::uint64_t bytes,
                       std::uint64_t seed)
        : _h(h), _bytes(roundUp(std::max<std::uint64_t>(bytes, 64),
                                64)),
          _seed(seed)
    {
    }

    std::uint64_t inputBytes() const override { return _bytes; }

  protected:
    AccelHandle &_h;
    std::uint64_t _bytes;
    std::uint64_t _seed;
    mem::Gva _src{};
    mem::Gva _dst{};
    std::vector<std::uint8_t> _input;
};

class AesWorkload : public StreamWorkloadBase
{
  public:
    using StreamWorkloadBase::StreamWorkloadBase;

    void
    program() override
    {
        _input = randomBytes(_bytes, _seed);
        _src = _h.dmaAlloc(_bytes);
        _dst = _h.dmaAlloc(_bytes);
        _h.memWrite(_src, _input.data(), _bytes);
        _h.writeAppReg(sreg::kSrc, _src.value());
        _h.writeAppReg(sreg::kDst, _dst.value());
        _h.writeAppReg(sreg::kLen, _bytes);
        _h.writeAppReg(accel::AesAccel::kRegKeyLo,
                       0x0706050403020100ULL + _seed);
        _h.writeAppReg(accel::AesAccel::kRegKeyHi,
                       0x0f0e0d0c0b0a0908ULL);
    }

    bool
    verify() override
    {
        algo::Aes128::Key key{};
        std::uint64_t lo = 0x0706050403020100ULL + _seed;
        std::uint64_t hi = 0x0f0e0d0c0b0a0908ULL;
        std::memcpy(key.data(), &lo, 8);
        std::memcpy(key.data() + 8, &hi, 8);
        algo::Aes128 ref(key);
        std::vector<std::uint8_t> expect = _input;
        ref.encryptEcb(expect.data(), expect.size());

        std::vector<std::uint8_t> got(_bytes);
        _h.memRead(_dst, got.data(), _bytes);
        return got == expect;
    }
};

class Md5Workload : public StreamWorkloadBase
{
  public:
    using StreamWorkloadBase::StreamWorkloadBase;

    void
    program() override
    {
        _input = randomBytes(_bytes, _seed);
        _src = _h.dmaAlloc(_bytes);
        _dst = _h.dmaAlloc(64);
        _h.memWrite(_src, _input.data(), _bytes);
        _h.writeAppReg(sreg::kSrc, _src.value());
        _h.writeAppReg(sreg::kDst, _dst.value());
        _h.writeAppReg(sreg::kLen, _bytes);
    }

    bool
    verify() override
    {
        auto expect = algo::Md5::hash(_input.data(), _input.size());
        algo::Md5::Digest got;
        _h.memRead(_dst, got.data(), got.size());
        std::uint64_t result8 = 0;
        std::memcpy(&result8, expect.data(), 8);
        return got == expect && _h.peekResult() == result8;
    }
};

class ShaWorkload : public StreamWorkloadBase
{
  public:
    using StreamWorkloadBase::StreamWorkloadBase;

    void
    program() override
    {
        _input = randomBytes(_bytes, _seed);
        _expect.reset();
        _src = _h.dmaAlloc(_bytes);
        _dst = _h.dmaAlloc(64);
        _h.memWrite(_src, _input.data(), _bytes);
        _h.writeAppReg(sreg::kSrc, _src.value());
        _h.writeAppReg(sreg::kDst, _dst.value());
        _h.writeAppReg(sreg::kLen, _bytes);
    }

    bool
    verify() override
    {
        if (!_expect)
            _expect = algo::Sha512::hash(_input.data(), _input.size());
        algo::Sha512::Digest got;
        _h.memRead(_dst, got.data(), got.size());
        return got == *_expect;
    }

  private:
    /**
     * Reference digest of _input. A service tenant verifies one
     * programmed job once per request, so the first verify() after
     * program() computes it and later ones reuse it; every verify()
     * still reads the device's output.
     */
    std::optional<algo::Sha512::Digest> _expect;
};

class FirWorkload : public StreamWorkloadBase
{
  public:
    using StreamWorkloadBase::StreamWorkloadBase;

    void
    program() override
    {
        _input = randomBytes(_bytes, _seed);
        _src = _h.dmaAlloc(_bytes);
        _dst = _h.dmaAlloc(_bytes);
        _h.memWrite(_src, _input.data(), _bytes);
        _h.writeAppReg(sreg::kSrc, _src.value());
        _h.writeAppReg(sreg::kDst, _dst.value());
        _h.writeAppReg(sreg::kLen, _bytes);
    }

    bool
    verify() override
    {
        std::vector<std::int32_t> samples(_bytes / 4);
        std::memcpy(samples.data(), _input.data(), _bytes);
        algo::Fir16 ref(algo::Fir16::defaultTaps());
        std::vector<std::int32_t> expect = ref.filter(samples);

        std::vector<std::int32_t> got(_bytes / 4);
        _h.memRead(_dst, got.data(), _bytes);
        return got == expect;
    }
};

class GrnWorkload : public Workload
{
  public:
    GrnWorkload(AccelHandle &h, std::uint64_t bytes,
                std::uint64_t seed)
        : _h(h),
          _count(std::max<std::uint64_t>(bytes / 8, 8)),
          _seed(seed)
    {
    }

    void
    program() override
    {
        _dst = _h.dmaAlloc(_count * 8);
        _h.writeAppReg(accel::GrnAccel::kRegDst, _dst.value());
        _h.writeAppReg(accel::GrnAccel::kRegCount, _count);
        _h.writeAppReg(accel::GrnAccel::kRegSeed, _seed);
    }

    bool
    verify() override
    {
        std::vector<double> got(_count);
        _h.memRead(_dst, got.data(), _count * 8);
        algo::GaussianSource ref(_seed);
        for (double g : got) {
            if (g != ref.next())
                return false;
        }
        return true;
    }

    std::uint64_t inputBytes() const override { return _count * 8; }

  private:
    AccelHandle &_h;
    std::uint64_t _count;
    std::uint64_t _seed;
    mem::Gva _dst{};
};

class RsdWorkload : public Workload
{
  public:
    static constexpr std::uint64_t kSlot = accel::RsdAccel::kSlotBytes;

    RsdWorkload(AccelHandle &h, std::uint64_t bytes,
                std::uint64_t seed)
        : _h(h),
          _codewords(std::max<std::uint64_t>(bytes / kSlot, 1)),
          _seed(seed)
    {
    }

    void
    program() override
    {
        sim::Rng rng(_seed);
        algo::ReedSolomon rs;
        std::vector<std::uint8_t> stream(_codewords * kSlot, 0);
        _messages.resize(_codewords * algo::ReedSolomon::kK);
        _corrupted = 0;

        for (std::uint64_t c = 0; c < _codewords; ++c) {
            std::uint8_t *msg =
                _messages.data() + c * algo::ReedSolomon::kK;
            for (std::size_t i = 0; i < algo::ReedSolomon::kK; ++i)
                msg[i] = static_cast<std::uint8_t>(rng.next());
            std::uint8_t *cw = stream.data() + c * kSlot;
            rs.encode(msg, cw);
            // Corrupt up to t distinct symbols.
            std::uint64_t errs =
                rng.below(algo::ReedSolomon::kT + 1);
            std::vector<std::size_t> pos;
            while (pos.size() < errs) {
                std::size_t p = rng.below(algo::ReedSolomon::kN);
                if (std::find(pos.begin(), pos.end(), p) ==
                    pos.end()) {
                    pos.push_back(p);
                }
            }
            for (std::size_t p : pos) {
                cw[p] ^= static_cast<std::uint8_t>(
                    1 + rng.below(255));
                ++_corrupted;
            }
        }

        _src = _h.dmaAlloc(stream.size());
        _dst = _h.dmaAlloc(_codewords * kSlot);
        _h.memWrite(_src, stream.data(), stream.size());
        _h.writeAppReg(sreg::kSrc, _src.value());
        _h.writeAppReg(sreg::kDst, _dst.value());
        _h.writeAppReg(sreg::kLen, stream.size());
    }

    bool
    verify() override
    {
        for (std::uint64_t c = 0; c < _codewords; ++c) {
            std::vector<std::uint8_t> got(algo::ReedSolomon::kK);
            _h.memRead(_dst + c * kSlot, got.data(), got.size());
            if (std::memcmp(got.data(),
                            _messages.data() +
                                c * algo::ReedSolomon::kK,
                            algo::ReedSolomon::kK) != 0) {
                return false;
            }
        }
        return _h.peekResult() == _corrupted;
    }

    std::uint64_t inputBytes() const override
    {
        return _codewords * kSlot;
    }

  private:
    AccelHandle &_h;
    std::uint64_t _codewords;
    std::uint64_t _seed;
    std::uint64_t _corrupted = 0;
    mem::Gva _src{};
    mem::Gva _dst{};
    std::vector<std::uint8_t> _messages;
};

class SwWorkload : public Workload
{
  public:
    SwWorkload(AccelHandle &h, std::uint64_t bytes,
               std::uint64_t seed)
        : _h(h),
          _len(std::clamp<std::uint64_t>(bytes / 2, 64, 4096)),
          _seed(seed)
    {
    }

    void
    program() override
    {
        sim::Rng rng(_seed);
        auto gen = [&rng, this](std::vector<std::uint8_t> &s) {
            static const char alphabet[] = "ACGT";
            s.resize(_len);
            for (auto &c : s)
                c = static_cast<std::uint8_t>(
                    alphabet[rng.below(4)]);
        };
        gen(_a);
        gen(_b);
        _srcA = _h.dmaAlloc(_len);
        _srcB = _h.dmaAlloc(_len);
        _h.memWrite(_srcA, _a.data(), _len);
        _h.memWrite(_srcB, _b.data(), _len);
        _h.writeAppReg(accel::SwAccel::kRegSeqA, _srcA.value());
        _h.writeAppReg(accel::SwAccel::kRegLenA, _len);
        _h.writeAppReg(accel::SwAccel::kRegSeqB, _srcB.value());
        _h.writeAppReg(accel::SwAccel::kRegLenB, _len);
    }

    bool
    verify() override
    {
        std::string_view a(reinterpret_cast<const char *>(_a.data()),
                           _a.size());
        std::string_view b(reinterpret_cast<const char *>(_b.data()),
                           _b.size());
        auto expect = static_cast<std::uint64_t>(
            algo::smithWatermanScore(a, b));
        return _h.peekResult() == expect;
    }

    std::uint64_t inputBytes() const override { return 2 * _len; }

  private:
    AccelHandle &_h;
    std::uint64_t _len;
    std::uint64_t _seed;
    std::vector<std::uint8_t> _a;
    std::vector<std::uint8_t> _b;
    mem::Gva _srcA{};
    mem::Gva _srcB{};
};

class GrsWorkload : public StreamWorkloadBase
{
  public:
    GrsWorkload(AccelHandle &h, std::uint64_t bytes,
                std::uint64_t seed)
        : StreamWorkloadBase(h, roundUp(bytes, 256), seed)
    {
    }

    void
    program() override
    {
        _input = randomBytes(_bytes, _seed);
        _src = _h.dmaAlloc(_bytes);
        _dst = _h.dmaAlloc(_bytes / 4);
        _h.memWrite(_src, _input.data(), _bytes);
        _h.writeAppReg(sreg::kSrc, _src.value());
        _h.writeAppReg(sreg::kDst, _dst.value());
        _h.writeAppReg(sreg::kLen, _bytes);
    }

    bool
    verify() override
    {
        auto expect = algo::rgbxToGray(_input.data(), _bytes / 4);
        std::vector<std::uint8_t> got(_bytes / 4);
        _h.memRead(_dst, got.data(), got.size());
        return got == expect;
    }
};

class RowFilterWorkload : public StreamWorkloadBase
{
  public:
    static constexpr std::uint64_t kWidth = 1024;

    RowFilterWorkload(AccelHandle &h, std::uint64_t bytes,
                      std::uint64_t seed, bool sobel)
        : StreamWorkloadBase(
              h, kWidth * std::max<std::uint64_t>(bytes / kWidth, 3),
              seed),
          _sobel(sobel)
    {
    }

    void
    program() override
    {
        _input = randomBytes(_bytes, _seed);
        _src = _h.dmaAlloc(_bytes);
        _dst = _h.dmaAlloc(_bytes);
        _h.memWrite(_src, _input.data(), _bytes);
        _h.writeAppReg(sreg::kSrc, _src.value());
        _h.writeAppReg(sreg::kDst, _dst.value());
        _h.writeAppReg(sreg::kLen, _bytes);
        _h.writeAppReg(accel::RowFilterAccel::kRegWidth, kWidth);
    }

    bool
    verify() override
    {
        algo::GrayImage in{static_cast<std::uint32_t>(kWidth),
                           static_cast<std::uint32_t>(_bytes /
                                                      kWidth),
                           _input};
        algo::GrayImage expect = _sobel ? algo::sobel3x3(in)
                                        : algo::gaussianBlur3x3(in);
        std::vector<std::uint8_t> got(_bytes);
        _h.memRead(_dst, got.data(), got.size());
        return got == expect.pixels;
    }

  private:
    bool _sobel;
};

class SsspWorkload : public Workload
{
  public:
    SsspWorkload(AccelHandle &h, std::uint64_t bytes,
                 std::uint64_t seed)
        : _h(h), _seed(seed)
    {
        _edges = std::max<std::uint64_t>(bytes / 8, 64);
        _vertices = static_cast<std::uint32_t>(
            std::max<std::uint64_t>(_edges / 8, 16));
    }

    void
    program() override
    {
        _graph = algo::makeRandomGraph(_vertices, _edges, 63, _seed);
        _layout = placeGraph(_h, _graph, 0);
        programSssp(_h, _layout);
    }

    bool
    verify() override
    {
        auto expect = algo::dijkstra(_graph, 0);
        std::vector<std::uint32_t> got(_vertices);
        _h.memRead(_layout.dist, got.data(), 4 * _vertices);
        return got == expect;
    }

    std::uint64_t inputBytes() const override
    {
        return _edges * 8 + 4ULL * (_vertices + 1) + 4ULL * _vertices;
    }

  private:
    AccelHandle &_h;
    std::uint64_t _seed;
    std::uint64_t _edges;
    std::uint32_t _vertices;
    algo::CsrGraph _graph;
    GraphLayout _layout;
};

class BtcWorkload : public Workload
{
  public:
    BtcWorkload(AccelHandle &h, std::uint64_t bytes,
                std::uint64_t seed)
        : _h(h), _seed(seed)
    {
        // Difficulty scales gently with the requested size.
        _zeroBits = 10;
        for (std::uint64_t b = 1 << 20; b <= bytes && _zeroBits < 18;
             b *= 4) {
            ++_zeroBits;
        }
    }

    void
    program() override
    {
        auto hdr = randomBytes(80, _seed);
        std::memset(hdr.data() + 76, 0, 4); // clear nonce field
        _header.assign(hdr.begin(), hdr.end());
        _src = _h.dmaAlloc(128);
        _h.memWrite(_src, _header.data(), 80);
        _h.writeAppReg(accel::BtcAccel::kRegSrc, _src.value());
        _h.writeAppReg(accel::BtcAccel::kRegStartNonce, 0);
        _h.writeAppReg(accel::BtcAccel::kRegZeroBits, _zeroBits);
    }

    bool
    verify() override
    {
        auto nonce = static_cast<std::uint32_t>(_h.peekResult());
        std::vector<std::uint8_t> hdr = _header;
        std::memcpy(hdr.data() + 76, &nonce, 4);
        auto d = algo::Sha256::doubleHash(hdr.data(), 80);
        for (std::uint32_t i = 0; i < _zeroBits; i += 8) {
            std::uint32_t in_byte =
                _zeroBits - i >= 8 ? 8 : _zeroBits - i;
            auto mask = static_cast<std::uint8_t>(
                0xff << (8 - in_byte));
            if (d[i / 8] & mask)
                return false;
        }
        return true;
    }

    std::uint64_t inputBytes() const override { return 80; }

  private:
    AccelHandle &_h;
    std::uint64_t _seed;
    std::uint32_t _zeroBits;
    std::vector<std::uint8_t> _header;
    mem::Gva _src{};
};

class MbWorkload : public Workload
{
  public:
    MbWorkload(AccelHandle &h, std::uint64_t bytes,
               std::uint64_t seed)
        : _h(h),
          _wset(roundUp(std::max<std::uint64_t>(bytes, 4096), 64)),
          _seed(seed)
    {
    }

    void
    program() override
    {
        _base = _h.dmaAlloc(_wset, 64);
        _target = _wset / 64;
        _h.writeAppReg(accel::MembenchAccel::kRegBase, _base.value());
        _h.writeAppReg(accel::MembenchAccel::kRegWset, _wset);
        _h.writeAppReg(accel::MembenchAccel::kRegMode,
                       accel::MembenchAccel::kRead);
        _h.writeAppReg(accel::MembenchAccel::kRegSeed, _seed);
        _h.writeAppReg(accel::MembenchAccel::kRegTarget, _target);
    }

    bool
    verify() override
    {
        return _h.peekResult() == _target && _h.peekProgress() == _target;
    }

    std::uint64_t inputBytes() const override { return _wset; }

  private:
    AccelHandle &_h;
    std::uint64_t _wset;
    std::uint64_t _seed;
    std::uint64_t _target = 0;
    mem::Gva _base{};
};

class LlWorkload : public Workload
{
  public:
    LlWorkload(AccelHandle &h, std::uint64_t bytes,
               std::uint64_t seed)
        : _h(h),
          _nodes(std::max<std::uint64_t>(bytes / 64, 16)),
          _seed(seed)
    {
    }

    void
    program() override
    {
        _layout = buildLinkedList(_h, _nodes, _seed);
        _h.writeAppReg(accel::LinkedlistAccel::kRegHead,
                       _layout.head.value());
        _h.writeAppReg(accel::LinkedlistAccel::kRegCount, 0);
        _h.writeAppReg(
            accel::LinkedlistAccel::kRegChannel,
            static_cast<std::uint64_t>(ccip::VChannel::kUpi));
    }

    bool
    verify() override
    {
        return _h.peekResult() == _layout.checksum &&
               _h.peekProgress() == _layout.nodes;
    }

    std::uint64_t inputBytes() const override { return _nodes * 64; }

  private:
    AccelHandle &_h;
    std::uint64_t _nodes;
    std::uint64_t _seed;
    LinkedListLayout _layout;
};

} // namespace

std::unique_ptr<Workload>
Workload::create(const std::string &app, AccelHandle &handle,
                 std::uint64_t bytes, std::uint64_t seed)
{
    if (app == "AES")
        return std::make_unique<AesWorkload>(handle, bytes, seed);
    if (app == "MD5")
        return std::make_unique<Md5Workload>(handle, bytes, seed);
    if (app == "SHA")
        return std::make_unique<ShaWorkload>(handle, bytes, seed);
    if (app == "FIR")
        return std::make_unique<FirWorkload>(handle, bytes, seed);
    if (app == "GRN")
        return std::make_unique<GrnWorkload>(handle, bytes, seed);
    if (app == "RSD")
        return std::make_unique<RsdWorkload>(handle, bytes, seed);
    if (app == "SW")
        return std::make_unique<SwWorkload>(handle, bytes, seed);
    if (app == "GAU")
        return std::make_unique<RowFilterWorkload>(handle, bytes,
                                                   seed, false);
    if (app == "GRS")
        return std::make_unique<GrsWorkload>(handle, bytes, seed);
    if (app == "SBL")
        return std::make_unique<RowFilterWorkload>(handle, bytes,
                                                   seed, true);
    if (app == "SSSP")
        return std::make_unique<SsspWorkload>(handle, bytes, seed);
    if (app == "BTC")
        return std::make_unique<BtcWorkload>(handle, bytes, seed);
    if (app == "MB")
        return std::make_unique<MbWorkload>(handle, bytes, seed);
    if (app == "LL")
        return std::make_unique<LlWorkload>(handle, bytes, seed);
    OPTIMUS_FATAL("unknown workload '%s'", app.c_str());
}

LinkedListLayout
buildLinkedList(AccelHandle &handle, std::uint64_t nodes,
                std::uint64_t seed)
{
    OPTIMUS_ASSERT(nodes > 0, "empty linked list");
    mem::Gva region = handle.dmaAlloc(nodes * 64, 64);

    // Random permutation: defeats every form of locality.
    std::vector<std::uint64_t> order(nodes);
    std::iota(order.begin(), order.end(), 0);
    sim::Rng rng(seed);
    for (std::uint64_t i = nodes - 1; i > 0; --i)
        std::swap(order[i], order[rng.below(i + 1)]);

    LinkedListLayout out;
    out.nodes = nodes;
    out.head = region + order[0] * 64;
    for (std::uint64_t i = 0; i < nodes; ++i) {
        accel::LinkedListNode node{};
        node.next =
            i + 1 < nodes ? (region + order[i + 1] * 64).value() : 0;
        node.payload[0] = rng.next();
        out.checksum += node.payload[0];
        handle.memWrite(region + order[i] * 64, &node, sizeof(node));
    }
    return out;
}

LinkedListLayout
buildScatteredLinkedList(AccelHandle &handle,
                         std::uint64_t region_bytes,
                         std::uint64_t nodes, std::uint64_t seed)
{
    OPTIMUS_ASSERT(nodes > 0, "empty linked list");
    const std::uint64_t lines = region_bytes / 64;
    OPTIMUS_ASSERT(nodes <= lines, "too many nodes for region");
    mem::Gva region = handle.dmaAlloc(region_bytes, 64);

    // Pick distinct random lines; collisions are re-rolled (sparse
    // occupancy makes retries rare).
    sim::Rng rng(seed);
    std::unordered_map<std::uint64_t, bool> used;
    std::vector<std::uint64_t> order;
    order.reserve(nodes);
    while (order.size() < nodes) {
        std::uint64_t line = rng.below(lines);
        if (!used.emplace(line, true).second)
            continue;
        order.push_back(line);
    }

    LinkedListLayout out;
    out.nodes = nodes;
    out.head = region + order[0] * 64;
    for (std::uint64_t i = 0; i < nodes; ++i) {
        accel::LinkedListNode node{};
        // Circular: the walk can run for an arbitrary window.
        node.next =
            (region + order[(i + 1) % nodes] * 64).value();
        node.payload[0] = rng.next();
        out.checksum += node.payload[0];
        handle.memWrite(region + order[i] * 64, &node, sizeof(node));
    }
    return out;
}

GraphLayout
placeGraph(AccelHandle &handle, const algo::CsrGraph &g,
           std::uint32_t source)
{
    GraphLayout out;
    out.vertices = g.numVertices();
    out.edgeCount = g.numEdges();
    out.source = source;

    std::uint64_t rowptr_bytes = 4ULL * (out.vertices + 1);
    std::uint64_t edges_bytes = 8ULL * out.edgeCount;
    std::uint64_t dist_bytes = 4ULL * out.vertices;

    out.rowptr = handle.dmaAlloc(rowptr_bytes, 64);
    out.edges = handle.dmaAlloc(edges_bytes, 64);
    out.dist = handle.dmaAlloc(dist_bytes, 64);

    handle.memWrite(out.rowptr, g.rowptr.data(), rowptr_bytes);

    std::vector<std::uint32_t> packed(2 * out.edgeCount);
    for (std::uint64_t e = 0; e < out.edgeCount; ++e) {
        packed[2 * e] = g.dest[e];
        packed[2 * e + 1] = g.weight[e];
    }
    handle.memWrite(out.edges, packed.data(), edges_bytes);

    std::vector<std::uint32_t> dist(out.vertices, algo::kDistInf);
    dist[source] = 0;
    handle.memWrite(out.dist, dist.data(), dist_bytes);
    return out;
}

void
programSssp(AccelHandle &handle, const GraphLayout &layout)
{
    handle.writeAppReg(accel::SsspAccel::kRegRowptr,
                       layout.rowptr.value());
    handle.writeAppReg(accel::SsspAccel::kRegEdges,
                       layout.edges.value());
    handle.writeAppReg(accel::SsspAccel::kRegDist,
                       layout.dist.value());
    handle.writeAppReg(accel::SsspAccel::kRegNvert, layout.vertices);
    handle.writeAppReg(accel::SsspAccel::kRegSource, layout.source);
}

} // namespace optimus::hv::workload

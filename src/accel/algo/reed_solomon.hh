/**
 * @file
 * Reed-Solomon RS(255, 223) codec over GF(2^8), the code class used
 * by the RSD benchmark accelerator. Corrects up to 16 symbol errors
 * per 255-byte codeword (syndromes, Berlekamp-Massey, Chien search,
 * Forney's algorithm).
 */

#ifndef OPTIMUS_ACCEL_ALGO_REED_SOLOMON_HH
#define OPTIMUS_ACCEL_ALGO_REED_SOLOMON_HH

#include <array>
#include <cstdint>
#include <vector>

namespace optimus::algo {

/** GF(2^8) arithmetic with the 0x11d primitive polynomial. */
class Gf256
{
  public:
    Gf256();

    std::uint8_t
    mul(std::uint8_t a, std::uint8_t b) const
    {
        if (a == 0 || b == 0)
            return 0;
        return _exp[_log[a] + _log[b]];
    }

    std::uint8_t div(std::uint8_t a, std::uint8_t b) const;
    std::uint8_t inv(std::uint8_t a) const;
    std::uint8_t pow(std::uint8_t a, int n) const;

    std::uint8_t expTable(int i) const { return _exp[i % 255]; }

  private:
    std::array<std::uint8_t, 512> _exp{};
    std::array<int, 256> _log{};
};

/** RS(n = 255, k = 223) encoder/decoder, t = 16. */
class ReedSolomon
{
  public:
    static constexpr std::size_t kN = 255; ///< codeword symbols
    static constexpr std::size_t kK = 223; ///< message symbols
    static constexpr std::size_t kParity = kN - kK;
    static constexpr std::size_t kT = kParity / 2; ///< correctable

    ReedSolomon();

    /**
     * Encode @p message (kK bytes) into @p codeword (kN bytes):
     * systematic, message first then parity.
     */
    void encode(const std::uint8_t *message,
                std::uint8_t *codeword) const;

    /**
     * Decode @p codeword (kN bytes) in place.
     * @return the number of symbol errors corrected, or -1 if the
     *         codeword was uncorrectable.
     */
    int decode(std::uint8_t *codeword) const;

    const Gf256 &field() const { return _gf; }

  private:
    std::vector<std::uint8_t> polyMul(
        const std::vector<std::uint8_t> &a,
        const std::vector<std::uint8_t> &b) const;
    std::uint8_t polyEval(const std::vector<std::uint8_t> &poly,
                          std::uint8_t x) const;

    Gf256 _gf;
    /** Generator polynomial, degree kParity, highest term first. */
    std::vector<std::uint8_t> _generator;
};

} // namespace optimus::algo

#endif // OPTIMUS_ACCEL_ALGO_REED_SOLOMON_HH

/**
 * @file
 * FNV-1a, the hash behind every simulated-result fingerprint
 * (exp::Fingerprint, the service plane's and the fleet's).
 */

#ifndef OPTIMUS_SIM_FNV_HH
#define OPTIMUS_SIM_FNV_HH

#include <cstdint>
#include <string>

namespace optimus::sim {

/** FNV-1a accumulator: a u64 folds in as its eight bytes, least
 *  significant first; a string, byte by byte. */
class Fnv1a
{
  public:
    Fnv1a &
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            _h ^= (v >> (8 * i)) & 0xff;
            _h *= 0x100000001b3ULL;
        }
        return *this;
    }

    Fnv1a &
    add(const std::string &s)
    {
        for (unsigned char c : s) {
            _h ^= c;
            _h *= 0x100000001b3ULL;
        }
        return *this;
    }

    std::uint64_t value() const { return _h; }

  private:
    std::uint64_t _h = 0xcbf29ce484222325ULL;
};

} // namespace optimus::sim

#endif // OPTIMUS_SIM_FNV_HH

/**
 * @file
 * The codec for an accelerator's saved job state: the blob a PREEMPT
 * writes into the guest's state buffer and a RESUME reads back, the
 * only form a job's state takes (layout in DESIGN.md §4). The blob is
 * tenant memory, so StateReader treats it as untrusted: it checks
 * every read against the end of the blob, and every count, fill or
 * flag against the bound its consumer relies on, at the read that
 * returns it. A rewritten field fails the resume with a message that
 * names the model and the field. Fields are fixed-width, host-order
 * integers, doubles and byte runs; nothing is read back as a bool or
 * as a struct with padding.
 */

#ifndef OPTIMUS_ACCEL_STATE_BLOB_HH
#define OPTIMUS_ACCEL_STATE_BLOB_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "sim/logging.hh"

namespace optimus::accel {

/** Lays job state out, in order, over a zero-filled blob. */
class StateWriter
{
  public:
    StateWriter(std::uint8_t *data, std::size_t size)
        : _data(data), _size(size)
    {
    }

    void u32(std::uint32_t v) { bytes(&v, sizeof(v)); }
    void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
    void f64(double v) { bytes(&v, sizeof(v)); }
    void bytes(const void *p, std::size_t n) { bytes(p, n, n); }

    /** @p n bytes of @p p in a fixed @p slot-byte field; the rest of
     *  the slot stays zero. */
    void
    bytes(const void *p, std::size_t n, std::size_t slot)
    {
        OPTIMUS_ASSERT(n <= slot && slot <= _size - _pos,
                       "job state exceeds the state buffer");
        // An empty run's pointer may be null, which memcpy forbids.
        if (n > 0)
            std::memcpy(_data + _pos, p, n);
        _pos += slot;
    }

    /** A frame: a u64 byte count, then whatever @p body writes. */
    template <typename F>
    void
    framed(F body)
    {
        const std::size_t at = _pos;
        u64(0);
        body(*this);
        const std::uint64_t len = _pos - at - sizeof(len);
        std::memcpy(_data + at, &len, sizeof(len));
    }

  private:
    std::uint8_t *_data;
    std::size_t _size;
    std::size_t _pos = 0;
};

/** Reads job state back, failing cleanly on a malformed blob. */
class StateReader
{
  public:
    StateReader(const std::uint8_t *data, std::size_t size)
        : _data(data), _size(size)
    {
    }

    /** Name the state being read, for "short <what> state". */
    void label(const char *what) { _what = what; }

    std::uint32_t u32() { return get<std::uint32_t>(); }
    std::uint64_t u64() { return get<std::uint64_t>(); }
    double f64() { return get<double>(); }
    void bytes(void *p, std::size_t n) { bytes(p, n, n); }

    /** The first @p n (at most @p slot) bytes of a fixed @p slot-byte
     *  field. */
    void
    bytes(void *p, std::size_t n, std::size_t slot)
    {
        OPTIMUS_ASSERT(slot <= _size - _pos,
                       "short %s state (%zu bytes left, %zu needed)",
                       _what, _size - _pos, slot);
        if (n > 0)
            std::memcpy(p, _data + _pos, n);
        _pos += slot;
    }

    /** A u64 count, fill or flag, which must be below @p bound. */
    std::uint64_t
    below(std::uint64_t bound, const char *field)
    {
        const std::uint64_t v = u64();
        check(v < bound, field, v);
        return v;
    }

    /** @p n u32 values, each below @p bound; @p n must fit in what is
     *  left of the blob. */
    void
    u32s(std::vector<std::uint32_t> &out, std::uint64_t n,
         std::uint32_t bound, const char *field)
    {
        OPTIMUS_ASSERT(n <= (_size - _pos) / sizeof(std::uint32_t),
                       "%s state %s count %llu out of range", _what,
                       field, static_cast<unsigned long long>(n));
        out.resize(n);
        for (std::uint32_t &v : out) {
            v = u32();
            check(v < bound, field, v);
        }
    }

    /** Read a frame's u64 byte count, step past the frame and return
     *  a reader over it. */
    StateReader
    framed()
    {
        const std::uint64_t len = u64();
        // Compared without an addition that a guest value could wrap.
        OPTIMUS_ASSERT(len <= _size - _pos,
                       "truncated arch state (%llu-byte frame)",
                       static_cast<unsigned long long>(len));
        _pos += len;
        return StateReader(_data + _pos - len, len);
    }

    /** Fail the restore unless @p ok holds for field value @p v. */
    void
    check(bool ok, const char *field, std::uint64_t v) const
    {
        OPTIMUS_ASSERT(ok, "%s state %s %llu out of range", _what,
                       field, static_cast<unsigned long long>(v));
    }

  private:
    template <typename T>
    T
    get()
    {
        T v{};
        bytes(&v, sizeof(v));
        return v;
    }

    const std::uint8_t *_data;
    std::size_t _size;
    std::size_t _pos = 0;
    const char *_what = "job";
};

} // namespace optimus::accel

#endif // OPTIMUS_ACCEL_STATE_BLOB_HH

/**
 * @file
 * Bounds-checked little-endian byte codec shared by the durability
 * layer: snapshots, traces, campaign journals, cached job results
 * and worker frames all serialise through these two classes, so
 * their integrity checksums cover identical encodings.
 *
 * ByteWriter appends fixed-width little-endian scalars,
 * length-prefixed strings and checksummed blobs to a growable
 * buffer; ByteReader walks the same encoding and throws
 * ByteCodecError on any overrun, malformed length or checksum
 * mismatch instead of reading past the end — corrupt input must
 * surface as a classified error, never as UB (see
 * docs/CHECKPOINT.md, "Hostile input"). The blob is the one framing
 * unit every checksummed file and frame is built from; the
 * sectioned container and the file I/O on top of it live in
 * sim/codec.hh.
 *
 * Header-only on purpose: component serialisers live in the
 * component libraries (core, coherence, network, ...) and must not
 * link against the snapshot library to write their own state.
 */

#ifndef WB_SIM_BYTES_HH
#define WB_SIM_BYTES_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace wb
{

/** Thrown by ByteReader on truncated or malformed input. */
class ByteCodecError : public std::runtime_error
{
  public:
    explicit ByteCodecError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/** 64-bit FNV-1a over a byte range (the durability layer's
 *  integrity checksum — fast, dependency-free, and stable across
 *  platforms). */
inline std::uint64_t
fnv1a64(const void *data, std::size_t len,
        std::uint64_t h = 0xcbf29ce484222325ULL)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

inline std::uint64_t
fnv1a64(const std::string &s,
        std::uint64_t h = 0xcbf29ce484222325ULL)
{
    return fnv1a64(s.data(), s.size(), h);
}

/** Append-only little-endian encoder. */
class ByteWriter
{
  public:
    void
    u8(std::uint8_t v)
    {
        _buf.push_back(v);
    }

    void
    u16(std::uint16_t v)
    {
        put(v, 2);
    }

    void
    u32(std::uint32_t v)
    {
        put(v, 4);
    }

    void
    u64(std::uint64_t v)
    {
        put(v, 8);
    }

    void
    i64(std::int64_t v)
    {
        put(static_cast<std::uint64_t>(v), 8);
    }

    void
    b(bool v)
    {
        u8(v ? 1 : 0);
    }

    /** IEEE bits; all doubles in the simulator are deterministic. */
    void
    f64(double v)
    {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        __builtin_memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    /** Length-prefixed string. */
    void
    str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        _buf.insert(_buf.end(), s.begin(), s.end());
    }

    void
    bytes(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        _buf.insert(_buf.end(), p, p + len);
    }

    /** Length + FNV-1a framed payload (layout: sim/codec.hh). */
    void
    blob(std::span<const unsigned char> payload)
    {
        u64(payload.size());
        u64(fnv1a64(payload.data(), payload.size()));
        bytes(payload.data(), payload.size());
    }

    const std::vector<unsigned char> &buffer() const { return _buf; }
    std::size_t size() const { return _buf.size(); }

    std::uint64_t
    checksum() const
    {
        return fnv1a64(_buf.data(), _buf.size());
    }

    /** Move the encoded bytes out (writer becomes empty). */
    std::vector<unsigned char>
    take()
    {
        return std::move(_buf);
    }

  private:
    void
    put(std::uint64_t v, int n)
    {
        for (int i = 0; i < n; ++i)
            _buf.push_back(
                static_cast<unsigned char>((v >> (8 * i)) & 0xff));
    }

    std::vector<unsigned char> _buf;
};

/** Bounds-checked little-endian decoder over a borrowed buffer. */
class ByteReader
{
  public:
    ByteReader(const void *data, std::size_t len)
        : _p(static_cast<const unsigned char *>(data)), _len(len)
    {}

    explicit ByteReader(std::span<const unsigned char> buf)
        : ByteReader(buf.data(), buf.size())
    {}

    std::uint8_t
    u8()
    {
        need(1);
        return _p[_pos++];
    }

    std::uint16_t
    u16()
    {
        return static_cast<std::uint16_t>(get(2));
    }

    std::uint32_t
    u32()
    {
        return static_cast<std::uint32_t>(get(4));
    }

    std::uint64_t u64() { return get(8); }

    std::int64_t
    i64()
    {
        return static_cast<std::int64_t>(get(8));
    }

    bool b() { return u8() != 0; }

    double
    f64()
    {
        const std::uint64_t bits = u64();
        double v;
        __builtin_memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string
    str()
    {
        const std::uint32_t n = u32();
        need(n);
        std::string s(reinterpret_cast<const char *>(_p + _pos), n);
        _pos += n;
        return s;
    }

    void
    bytes(void *out, std::size_t len)
    {
        need(len);
        __builtin_memcpy(out, _p + _pos, len);
        _pos += len;
    }

    /** Read a ByteWriter::blob and return a view of its payload
     *  inside this buffer; throws ByteCodecError when the length
     *  overruns the buffer or the checksum does not match. */
    std::span<const unsigned char>
    blob()
    {
        const std::uint64_t len = u64();
        const std::uint64_t sum = u64();
        if (len > remaining())
            throw ByteCodecError(
                "blob of " + std::to_string(len) +
                " byte(s) overruns the " +
                std::to_string(remaining()) + " left");
        const std::span<const unsigned char> payload(_p + _pos, len);
        if (fnv1a64(payload.data(), payload.size()) != sum)
            throw ByteCodecError("blob checksum mismatch");
        _pos += len;
        return payload;
    }

    std::size_t remaining() const { return _len - _pos; }
    std::size_t position() const { return _pos; }
    bool atEnd() const { return _pos == _len; }

  private:
    void
    need(std::size_t n)
    {
        if (_len - _pos < n)
            throw ByteCodecError(
                "truncated record: need " + std::to_string(n) +
                " byte(s) at offset " + std::to_string(_pos) +
                " of " + std::to_string(_len));
    }

    std::uint64_t
    get(int n)
    {
        need(static_cast<std::size_t>(n));
        std::uint64_t v = 0;
        for (int i = 0; i < n; ++i)
            v |= std::uint64_t(_p[_pos + std::size_t(i)])
                 << (8 * i);
        _pos += std::size_t(n);
        return v;
    }

    const unsigned char *_p;
    std::size_t _len;
    std::size_t _pos = 0;
};

} // namespace wb

#endif // WB_SIM_BYTES_HH

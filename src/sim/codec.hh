/**
 * @file
 * The durability layer's one framing codec. Snapshots (`.wbsnap`),
 * traces (`.wbt`), campaign journals, cached job results and worker
 * frames are all built from the pieces below; none of them checks a
 * stored checksum, reads a whole file or renames a temp file itself.
 *
 * Blob (ByteWriter::blob / ByteReader::blob in sim/bytes.hh):
 *
 *   [u64 len] [u64 fnv1a64(payload)] [payload]
 *
 * Sectioned container (encodeSectioned / SectionedReader):
 *
 *   [u64 magic] [u32 version] [u32 sectionCount]
 *   [u64 word] x W               the format's fixed header words
 *   [u64 headerChecksum]         FNV-1a over the bytes above
 *   sectionCount x: [str name] [blob payload]
 *   [u64 fileChecksum]           FNV-1a over everything above
 *
 * SectionedReader checks, in order: the file holds the fixed header,
 * the whole-file checksum (so a flipped bit anywhere is caught before
 * any field is trusted), magic, version and the header checksum; then
 * each section's name, length and checksum as it is read; finally
 * that nothing trails the last section. Every failure throws
 * ByteCodecError, which each format maps onto its own error.
 *
 * All integers little-endian. docs/CHECKPOINT.md ("Framing") lists
 * which format uses which piece. Header-only, like sim/bytes.hh.
 */

#ifndef WB_SIM_CODEC_HH
#define WB_SIM_CODEC_HH

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "sim/bytes.hh"

namespace wb
{

/** One named section of a sectioned container. */
struct Section
{
    std::string name;
    std::vector<unsigned char> payload;
};

/** Encode a sectioned container with header @p words. */
inline std::vector<unsigned char>
encodeSectioned(std::uint64_t magic, std::uint32_t version,
                std::initializer_list<std::uint64_t> words,
                const std::vector<Section> &sections)
{
    ByteWriter out;
    out.u64(magic);
    out.u32(version);
    out.u32(static_cast<std::uint32_t>(sections.size()));
    for (std::uint64_t w : words)
        out.u64(w);
    out.u64(out.checksum());
    for (const Section &s : sections) {
        out.str(s.name);
        out.blob(s.payload);
    }
    out.u64(out.checksum());
    return out.take();
}

/** Decodes a sectioned container one section at a time, so each
 *  format runs its own checks between sections. Payload views point
 *  into the file bytes, which must outlive the reader. */
class SectionedReader
{
  public:
    /** Check everything up to the first section. */
    SectionedReader(std::span<const unsigned char> file,
                    std::uint64_t magic, std::uint32_t version,
                    std::size_t words)
        : _r(file)
    {
        const std::size_t header = 8 + 4 + 4 + 8 * words + 8;
        if (file.size() < header + 8)
            throw ByteCodecError("file shorter than the fixed header");

        // Whole-file checksum first: it covers everything up to the
        // trailing 8 bytes, so a bit flip anywhere is caught even if
        // it lands in a length field.
        const std::size_t body = file.size() - 8;
        if (ByteReader(file.subspan(body)).u64() !=
            fnv1a64(file.data(), body))
            throw ByteCodecError(
                "file checksum mismatch (corrupt or truncated file)");

        _r = ByteReader(file.first(body));
        if (_r.u64() != magic)
            throw ByteCodecError("bad magic");
        const std::uint32_t v = _r.u32();
        if (v != version)
            throw ByteCodecError("unsupported version " +
                                 std::to_string(v) + " (expected " +
                                 std::to_string(version) + ")");
        _count = _r.u32();
        for (std::size_t i = 0; i < words; ++i)
            _words.push_back(_r.u64());
        if (_r.u64() != fnv1a64(file.data(), header - 8))
            throw ByteCodecError("header checksum mismatch");
    }

    std::uint32_t sectionCount() const { return _count; }
    std::uint64_t word(std::size_t i) const { return _words.at(i); }
    std::size_t remaining() const { return _r.remaining(); }

    /** Read the next section's name and verified payload. A
     *  non-empty @p expect must equal the name (checked first). */
    std::pair<std::string, std::span<const unsigned char>>
    next(std::string_view expect = {})
    {
        const std::string name = _r.str();
        if (!expect.empty() && name != expect)
            throw ByteCodecError("expected section '" +
                                 std::string(expect) + "', found '" +
                                 name + "'");
        try {
            return {name, _r.blob()};
        } catch (const ByteCodecError &e) {
            throw ByteCodecError("section '" + name + "': " +
                                 e.what());
        }
    }

    /** Throw if bytes trail the last section. */
    void
    finish() const
    {
        if (!_r.atEnd())
            throw ByteCodecError(std::to_string(_r.remaining()) +
                                 " trailing byte(s) after the last "
                                 "section");
    }

  private:
    ByteReader _r;
    std::uint32_t _count = 0;
    std::vector<std::uint64_t> _words;
};

/** Read all of @p path into @p out.
 *  @return false with @p err set when it cannot be opened or read. */
inline bool
readFileBytes(const std::string &path, std::vector<unsigned char> &out,
              std::string &err)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        err = "cannot open " + path + ": " + std::strerror(errno);
        return false;
    }
    out.clear();
    unsigned char chunk[65536];
    std::size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        out.insert(out.end(), chunk, chunk + n);
    const bool ok = !std::ferror(f);
    std::fclose(f);
    if (!ok)
        err = "read error on " + path;
    return ok;
}

/**
 * Replace @p path with @p bytes atomically: write a temp file named
 * after the path, the process and the thread, then rename it over
 * @p path, so concurrent writers of one path leave one writer's
 * complete bytes. The temp file is removed on any failure.
 * @return false with @p err set on failure.
 */
inline bool
writeFileAtomic(const std::string &path,
                std::span<const unsigned char> bytes, std::string &err)
{
    // Forked campaign workers share cache directories and their main
    // threads can hash identically, so the pid is part of the name.
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid()) + "." +
        std::to_string(
            std::hash<std::thread::id>{}(std::this_thread::get_id()));
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        err = "cannot open " + tmp + " for writing: " +
              std::strerror(errno);
        return false;
    }
    bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) ==
              bytes.size();
    ok = std::fclose(f) == 0 && ok;
    if (!ok)
        err = "short write to " + tmp;
    else if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        err = "cannot rename " + tmp + " to " + path + ": " +
              std::strerror(errno);
        ok = false;
    }
    if (!ok)
        std::remove(tmp.c_str());
    return ok;
}

} // namespace wb

#endif // WB_SIM_CODEC_HH

#include "snapshot/snapshot.hh"

namespace wb
{

namespace
{

[[noreturn]] void
fail(const std::string &what)
{
    throw SnapshotError("snapshot: " + what);
}

} // namespace

const SnapshotSection *
SnapshotFile::find(const std::string &name) const
{
    for (const SnapshotSection &s : sections)
        if (s.name == name)
            return &s;
    return nullptr;
}

std::vector<unsigned char>
SnapshotFile::encode() const
{
    return encodeSectioned(
        magic, version, {tick, configFingerprint, workloadFingerprint},
        sections);
}

SnapshotFile
SnapshotFile::decode(const void *data, std::size_t len)
{
    try {
        SectionedReader r(
            {static_cast<const unsigned char *>(data), len}, magic,
            version, 3);
        SnapshotFile out;
        out.tick = r.word(0);
        out.configFingerprint = r.word(1);
        out.workloadFingerprint = r.word(2);
        for (std::uint32_t i = 0; i < r.sectionCount(); ++i) {
            auto [name, payload] = r.next();
            if (out.find(name))
                fail("duplicate section '" + name + "'");
            out.add(std::move(name), {payload.begin(), payload.end()});
        }
        r.finish();
        return out;
    } catch (const ByteCodecError &e) {
        fail(e.what());
    }
}

void
SnapshotFile::save(const std::string &path) const
{
    std::string err;
    if (!writeFileAtomic(path, encode(), err))
        fail(err);
}

SnapshotFile
SnapshotFile::load(const std::string &path)
{
    std::vector<unsigned char> bytes;
    std::string err;
    if (!readFileBytes(path, bytes, err))
        fail(err);
    return decode(bytes.data(), bytes.size());
}

} // namespace wb

#include "campaign/result_cache.hh"

#include <cstdio>
#include <filesystem>
#include <vector>

#include "campaign/campaign_aggregator.hh"
#include "campaign/job_journal.hh"
#include "sim/codec.hh"
#include "snapshot/system_state.hh"

namespace wb
{

std::uint64_t
resultSchemaFingerprint()
{
    // Any schema change must invalidate cached entries, and hashing
    // the CSV header does that without a hand-maintained version.
    return fnv1a64(campaignCsvHeader.data(), campaignCsvHeader.size());
}

ResultCache::ResultCache(std::string dir) : _dir(std::move(dir)) {}

std::string
ResultCache::keyString(const CampaignSpec &spec, const JobSpec &job,
                       bool verify_equivalence)
{
    const SystemConfig cfg = spec.configFor(job);
    const Workload wl = spec.workloadFor(job);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "cfg=%016llx wl=%016llx eq=%d schema=%016llx",
                  static_cast<unsigned long long>(
                      configFingerprint(cfg)),
                  static_cast<unsigned long long>(
                      workloadFingerprint(wl)),
                  verify_equivalence ? 1 : 0,
                  static_cast<unsigned long long>(
                      resultSchemaFingerprint()));
    return buf;
}

std::string
ResultCache::entryPath(const std::string &key) const
{
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx.wbjob",
                  static_cast<unsigned long long>(fnv1a64(key)));
    return _dir + "/" + name;
}

bool
ResultCache::lookup(const std::string &key, JobResult &out) const
{
    std::vector<unsigned char> data;
    std::string err;
    if (!readFileBytes(entryPath(key), data, err))
        return false;

    try {
        ByteReader r(data);
        if (r.u64() != magic || r.u32() != version)
            return false;
        if (r.str() != key) // hash collision or stale layout
            return false;
        ByteReader body(r.blob());
        if (!r.atEnd())
            return false;
        out = decodeJobResult(body);
        return true;
    } catch (const ByteCodecError &) {
        return false; // corrupt entry = miss
    }
}

void
ResultCache::store(const std::string &key,
                   const JobResult &res) const
{
    std::error_code ec;
    std::filesystem::create_directories(_dir, ec);
    if (ec)
        return;

    ByteWriter payload;
    encodeJobResult(payload, res);
    ByteWriter w;
    w.u64(magic);
    w.u32(version);
    w.str(key);
    w.blob(payload.buffer());
    // Errors are ignored: the cache is never load-bearing. Racing
    // writers of one key each leave a complete entry.
    std::string err;
    writeFileAtomic(entryPath(key), w.buffer(), err);
}

} // namespace wb

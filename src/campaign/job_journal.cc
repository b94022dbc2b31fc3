#include "campaign/job_journal.hh"

#include <cerrno>
#include <cstring>

#include <unistd.h>

#include "sim/codec.hh"

// The header codec lives in job_codec.cc: the worker Init frame and
// the journal header are deliberately the same byte encoding.
#include "campaign/job_codec.hh"

namespace wb
{

// ---------------------------------------------------------------
// JobResult codec
// ---------------------------------------------------------------

namespace
{

// The per-vnet arrays follow orphansAbsorbed, the last recovery
// counter.
void
encodeSimResults(ByteWriter &w, const SimResults &r)
{
    w.b(r.completed);
    w.b(r.deadlocked);
    w.str(r.deadlockReason);
    for (const ResultField &f : resultFields) {
        if (f.flag)
            w.b(r.*f.flag);
        else
            w.u64(r.*f.count);
        if (f.count != &SimResults::orphansAbsorbed)
            continue;
        for (std::uint64_t v : r.dupDelivered)
            w.u64(v);
        for (std::uint64_t v : r.oooDelivered)
            w.u64(v);
    }
}

SimResults
decodeSimResults(ByteReader &r)
{
    SimResults s;
    s.completed = r.b();
    s.deadlocked = r.b();
    s.deadlockReason = r.str();
    for (const ResultField &f : resultFields) {
        if (f.flag)
            s.*f.flag = r.b();
        else
            s.*f.count = r.u64();
        if (f.count != &SimResults::orphansAbsorbed)
            continue;
        for (std::uint64_t &v : s.dupDelivered)
            v = r.u64();
        for (std::uint64_t &v : s.oooDelivered)
            v = r.u64();
    }
    return s;
}

void
encodeJobSpec(ByteWriter &w, const JobSpec &j)
{
    w.u64(j.index);
    w.str(j.workload);
    w.u8(std::uint8_t(j.mode));
    w.u8(std::uint8_t(j.cls));
    w.str(j.variant);
    w.str(j.mixName);
    w.str(j.faultSpec);
    w.i64(j.seedIndex);
    w.u64(j.seed);
    w.u64(j.faultSeed);
}

JobSpec
decodeJobSpec(ByteReader &r)
{
    JobSpec j;
    j.index = std::size_t(r.u64());
    j.workload = r.str();
    j.mode = CommitMode(r.u8());
    j.cls = CoreClass(r.u8());
    j.variant = r.str();
    j.mixName = r.str();
    j.faultSpec = r.str();
    j.seedIndex = int(r.i64());
    j.seed = r.u64();
    j.faultSeed = r.u64();
    return j;
}

} // namespace

void
encodeJobResult(ByteWriter &w, const JobResult &res)
{
    encodeJobSpec(w, res.spec);
    w.u8(std::uint8_t(int(res.outcome)));
    w.str(res.verdict);
    w.str(res.detail);
    encodeSimResults(w, res.results);
    w.i64(res.attempts);
    w.b(res.infraFailure);
    w.str(res.crashJson);
    w.str(res.crashReportPath);
    w.b(res.equivalenceChecked);
    w.b(res.equivalenceMatch);
    w.str(res.equivalenceDetail);
}

JobResult
decodeJobResult(ByteReader &r)
{
    JobResult res;
    res.spec = decodeJobSpec(r);
    res.outcome = RunOutcome(int(r.u8()));
    res.verdict = r.str();
    res.detail = r.str();
    res.results = decodeSimResults(r);
    res.attempts = int(r.i64());
    res.infraFailure = r.b();
    res.crashJson = r.str();
    res.crashReportPath = r.str();
    res.equivalenceChecked = r.b();
    res.equivalenceMatch = r.b();
    res.equivalenceDetail = r.str();
    return res;
}

std::uint64_t
jobListFingerprint(const std::vector<JobSpec> &jobs)
{
    ByteWriter w;
    w.u64(jobs.size());
    for (const JobSpec &j : jobs)
        encodeJobSpec(w, j);
    return w.checksum();
}

// ---------------------------------------------------------------
// Journal I/O
// ---------------------------------------------------------------

bool
JobJournal::open(const std::string &path, const JournalHeader &hdr,
                 std::string &err)
{
    close();
    _f = std::fopen(path.c_str(), "wb");
    if (!_f) {
        err = "cannot open journal " + path + ": " +
              std::strerror(errno);
        return false;
    }
    ByteWriter hw;
    encodeJournalHeader(hw, hdr);
    ByteWriter w;
    w.u64(magic);
    w.u32(version);
    w.blob(hw.buffer());
    const auto &buf = w.buffer();
    if (std::fwrite(buf.data(), 1, buf.size(), _f) != buf.size()) {
        err = "cannot write journal header to " + path;
        close();
        return false;
    }
    std::fflush(_f);
    fsync(fileno(_f));
    return true;
}

void
JobJournal::append(const JobResult &res)
{
    std::lock_guard<std::mutex> lk(_mu);
    if (!_f)
        return;
    ByteWriter payload;
    encodeJobResult(payload, res);
    ByteWriter rec;
    rec.blob(payload.buffer());
    const auto &buf = rec.buffer();
    // Short write + crash at worst tears this one record; load()
    // detects it by length/checksum and drops it.
    std::fwrite(buf.data(), 1, buf.size(), _f);
    std::fflush(_f);
    fsync(fileno(_f));
}

void
JobJournal::close()
{
    std::lock_guard<std::mutex> lk(_mu);
    if (_f) {
        std::fflush(_f);
        fsync(fileno(_f));
        std::fclose(_f);
        _f = nullptr;
    }
}

bool
JobJournal::load(const std::string &path, LoadResult &out,
                 std::string &err)
{
    std::vector<unsigned char> data;
    if (!readFileBytes(path, data, err))
        return false;

    try {
        ByteReader r(data);
        if (r.u64() != magic) {
            err = path + ": not a wbcampaign journal";
            return false;
        }
        if (r.u32() != version) {
            err = path + ": unsupported journal version";
            return false;
        }
        ByteReader hr(r.blob());
        out.header = decodeJournalHeader(hr);

        // Records: stop at the first torn one (everything after a
        // torn record was never fsynced in order, so it is garbage
        // by construction).
        while (!r.atEnd()) {
            std::span<const unsigned char> body;
            try {
                body = r.blob();
            } catch (const ByteCodecError &) {
                ++out.tornDropped;
                break;
            }
            ByteReader br(body);
            out.jobs.push_back(decodeJobResult(br));
        }
    } catch (const ByteCodecError &e) {
        err = path + ": " + e.what();
        return false;
    }
    return true;
}

} // namespace wb

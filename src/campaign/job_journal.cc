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

void
encodeSimResults(ByteWriter &w, const SimResults &r)
{
    w.b(r.completed);
    w.b(r.deadlocked);
    w.str(r.deadlockReason);
    w.u64(r.cycles);
    w.u64(r.instructions);
    w.u64(r.loads);
    w.u64(r.stores);
    w.u64(r.atomics);
    w.u64(r.flitHops);
    w.u64(r.messages);
    w.u64(r.leakedMessages);
    w.u64(r.faultsDropped);
    w.u64(r.faultsDuplicated);
    w.u64(r.faultsDelayed);
    w.b(r.recoveryEnabled);
    w.u64(r.retransmits);
    w.u64(r.recoveredMessages);
    w.u64(r.arqReissues);
    w.u64(r.arqRecovered);
    w.u64(r.dedupHits);
    w.u64(r.orphansAbsorbed);
    for (std::uint64_t v : r.dupDelivered)
        w.u64(v);
    for (std::uint64_t v : r.oooDelivered)
        w.u64(v);
    w.u64(r.wbEntries);
    w.u64(r.wbEncounters);
    w.u64(r.uncacheableReads);
    w.u64(r.nacksSent);
    w.u64(r.ackReleases);
    w.u64(r.lockdownsSet);
    w.u64(r.lockdownsSeen);
    w.u64(r.ldtExports);
    w.u64(r.oooCommits);
    w.u64(r.squashBranch);
    w.u64(r.squashDspec);
    w.u64(r.squashInv);
    w.u64(r.stallRob);
    w.u64(r.stallLq);
    w.u64(r.stallSq);
    w.u64(r.stallOther);
    w.u64(r.coreCycles);
    w.u64(r.tsoViolations);
}

SimResults
decodeSimResults(ByteReader &r)
{
    SimResults s;
    s.completed = r.b();
    s.deadlocked = r.b();
    s.deadlockReason = r.str();
    s.cycles = r.u64();
    s.instructions = r.u64();
    s.loads = r.u64();
    s.stores = r.u64();
    s.atomics = r.u64();
    s.flitHops = r.u64();
    s.messages = r.u64();
    s.leakedMessages = r.u64();
    s.faultsDropped = r.u64();
    s.faultsDuplicated = r.u64();
    s.faultsDelayed = r.u64();
    s.recoveryEnabled = r.b();
    s.retransmits = r.u64();
    s.recoveredMessages = r.u64();
    s.arqReissues = r.u64();
    s.arqRecovered = r.u64();
    s.dedupHits = r.u64();
    s.orphansAbsorbed = r.u64();
    for (std::uint64_t &v : s.dupDelivered)
        v = r.u64();
    for (std::uint64_t &v : s.oooDelivered)
        v = r.u64();
    s.wbEntries = r.u64();
    s.wbEncounters = r.u64();
    s.uncacheableReads = r.u64();
    s.nacksSent = r.u64();
    s.ackReleases = r.u64();
    s.lockdownsSet = r.u64();
    s.lockdownsSeen = r.u64();
    s.ldtExports = r.u64();
    s.oooCommits = r.u64();
    s.squashBranch = r.u64();
    s.squashDspec = r.u64();
    s.squashInv = r.u64();
    s.stallRob = r.u64();
    s.stallLq = r.u64();
    s.stallSq = r.u64();
    s.stallOther = r.u64();
    s.coreCycles = r.u64();
    s.tsoViolations = std::size_t(r.u64());
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

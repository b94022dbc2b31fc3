/**
 * @file
 * Write-ahead job journal for crash-resumable campaigns.
 *
 * The runner appends one checksummed record per finished job and
 * fsyncs it before moving on, so a SIGKILL (or power loss) can lose
 * at most the jobs that were still in flight. `wbcampaign --resume`
 * loads the journal, replays the recorded results, and re-runs only
 * what is missing; because every JobResult field round-trips through
 * the codec bit-exactly, the resumed campaign's aggregate JSON/CSV
 * is byte-identical to an uninterrupted run (docs/CHECKPOINT.md).
 *
 * File layout (all little-endian; blob framing in sim/codec.hh,
 * docs/CHECKPOINT.md "Framing"):
 *   [u64 magic "WBJRNL1\0"] [u32 version] [blob header]
 *   record*: [blob JobResult]
 *
 * A torn tail record (truncated or checksum-bad — the fsync ordering
 * makes anything after it garbage too) is dropped and counted, never
 * trusted.
 */

#ifndef WB_CAMPAIGN_JOB_JOURNAL_HH
#define WB_CAMPAIGN_JOB_JOURNAL_HH

#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/campaign_runner.hh"
#include "sim/bytes.hh"

namespace wb
{

/** Bit-exact JobResult codec (journal records and cache entries).
 *  JournalHeader itself is declared in campaign_runner.hh (the
 *  runner's Options carries one). */
void encodeJobResult(ByteWriter &w, const JobResult &res);
JobResult decodeJobResult(ByteReader &r); //!< throws ByteCodecError

/** Fingerprint the expanded job list (axes + seeds per job). */
std::uint64_t jobListFingerprint(const std::vector<JobSpec> &jobs);

/** Append-only journal writer; append() is thread-safe. */
class JobJournal
{
  public:
    static constexpr std::uint64_t magic = 0x00314c4e524a4257ULL;
    //!< "WBJRNL1\0" little-endian
    static constexpr std::uint32_t version = 1;

    JobJournal() = default;
    ~JobJournal() { close(); }
    JobJournal(const JobJournal &) = delete;
    JobJournal &operator=(const JobJournal &) = delete;

    /** Create/truncate @p path, write the header, fsync.
     *  @return false with @p err set on I/O failure. */
    bool open(const std::string &path, const JournalHeader &hdr,
              std::string &err);

    /** Append one fsynced record. Safe from any worker thread. */
    void append(const JobResult &res);

    void close();
    bool isOpen() const { return _f != nullptr; }

    /** Everything a journal load learned. */
    struct LoadResult
    {
        JournalHeader header;
        /** Recorded results, journal order (not index order). */
        std::vector<JobResult> jobs;
        std::size_t tornDropped = 0; //!< invalid tail records
    };

    /** Read a journal back; tolerates a torn tail. @return false
     *  with @p err set when the file is missing or the header is
     *  unusable. */
    static bool load(const std::string &path, LoadResult &out,
                     std::string &err);

  private:
    std::FILE *_f = nullptr;
    std::mutex _mu;
};

} // namespace wb

#endif // WB_CAMPAIGN_JOB_JOURNAL_HH

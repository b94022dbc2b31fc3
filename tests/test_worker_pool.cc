/**
 * @file
 * Process-isolated campaign backend tests: the pipe frame codec is
 * checksummed and rejects corruption, WorkerInit round-trips, specs
 * rebuild identically from their journal-header description, and —
 * the headline guarantees — the process backend emits aggregates
 * byte-identical to the thread backend, a worker segfault mid-job
 * costs a respawn but never a result, a poison job is quarantined
 * after killing its quota of workers, a hung job dies by deadline
 * and is classified "job-timeout", an allocation over RLIMIT_AS is
 * recorded gracefully as "job-oom", an exhausted respawn budget
 * degrades to the thread backend instead of failing, and the
 * result cache survives true multi-process concurrent writers.
 *
 * This binary doubles as its own campaign worker: main() dispatches
 * `--worker` to campaignWorkerMain() before gtest ever runs, so the
 * supervisor, which always re-execs /proc/self/exe, starts the test
 * executable as the worker process.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "campaign/campaign_aggregator.hh"
#include "campaign/campaign_runner.hh"
#include "campaign/campaign_spec.hh"
#include "campaign/job_codec.hh"
#include "campaign/job_journal.hh"
#include "campaign/result_cache.hh"
#include "campaign/worker_pool.hh"

using namespace wb;

namespace
{

/** A real-workload manifest small enough that the full grid runs in
 *  well under a second. Kept as text: the worker processes rebuild
 *  the spec from this very string via the journal header. */
const char kManifest[] = "name = pooltest\n"
                         "workloads = blackscholes\n"
                         "modes = in-order ooo-wb\n"
                         "cores = 2\n"
                         "network = ideal\n"
                         "scale = 0.02\n"
                         "seeds = 2\n"
                         "base-seed = 11\n"
                         "max-cycles = 4000000\n"
                         "mix clean\n";

CampaignSpec
poolSpec()
{
    CampaignSpec spec;
    std::string err;
    std::istringstream in(kManifest);
    if (!parseCampaignSpec(in, spec, err))
        throw std::runtime_error("kManifest: " + err);
    return spec;
}

std::string
freshDir(const std::string &name)
{
    const std::string d = testing::TempDir() + "wbpool-" + name;
    std::filesystem::remove_all(d);
    std::filesystem::create_directories(d);
    return d;
}

/** Options for a process-backend run of kManifest. */
CampaignRunner::Options
processOpts(const std::string &outDir, int jobs = 2)
{
    CampaignRunner::Options opts;
    opts.jobs = jobs;
    opts.progress = false;
    opts.outDir = outDir;
    opts.process.enabled = true;
    opts.journalHeader.specKind = "manifest";
    opts.journalHeader.specText = kManifest;
    return opts;
}

CampaignResult
runThreadBackend(const CampaignSpec &spec, int jobs)
{
    CampaignRunner::Options opts;
    opts.jobs = jobs;
    opts.progress = false;
    CampaignRunner runner(spec, opts);
    return runner.run();
}

void
expectAggregatesEqual(const CampaignSpec &spec,
                      const CampaignResult &a, const CampaignResult &b)
{
    std::ostringstream ja, jb, ca, cb;
    writeCampaignJson(ja, spec, a);
    writeCampaignJson(jb, spec, b);
    EXPECT_EQ(ja.str(), jb.str());
    writeCampaignCsv(ca, a);
    writeCampaignCsv(cb, b);
    EXPECT_EQ(ca.str(), cb.str());
}

/** Read a telemetry sidecar, dropping the wall-clock header key —
 *  the one field deliberately outside the determinism contract. */
std::string
sidecarNoWall(const std::string &path)
{
    std::ifstream f(path);
    std::stringstream ss;
    ss << f.rdbuf();
    std::string s = ss.str();
    const auto b = s.find("\"wall\":{");
    if (b != std::string::npos) {
        const auto e = s.find("},", b);
        if (e != std::string::npos)
            s.erase(b, e - b + 2);
    }
    return s;
}

bool
underAddressSanitizer()
{
#if defined(__SANITIZE_ADDRESS__)
    return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
    return true;
#else
    return false;
#endif
#else
    return false;
#endif
}

} // namespace

TEST(JobCodec, FramesRoundTripAndRejectCorruption)
{
    const unsigned char payload[] = {1, 2, 3, 4, 5, 6, 7};
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    ASSERT_TRUE(writeFrame(fds[1], WireType::RunJob, payload,
                           sizeof(payload)));
    ASSERT_TRUE(writeFrame(fds[1], WireType::Heartbeat, nullptr, 0));
    close(fds[1]);
    std::vector<unsigned char> bytes;
    unsigned char chunk[256];
    ssize_t n;
    while ((n = read(fds[0], chunk, sizeof(chunk))) > 0)
        bytes.insert(bytes.end(), chunk, chunk + n);
    close(fds[0]);
    ASSERT_GT(bytes.size(), 40u); // two headers + payload

    // Feed the reader byte-by-byte: frames must only surface once
    // complete, and both must decode intact.
    FrameReader r;
    std::vector<WireFrame> got;
    for (unsigned char b : bytes) {
        r.append(&b, 1);
        WireFrame f;
        while (r.next(f))
            got.push_back(f);
    }
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].type, WireType::RunJob);
    ASSERT_EQ(got[0].payload.size(), sizeof(payload));
    EXPECT_EQ(std::memcmp(got[0].payload.data(), payload,
                          sizeof(payload)),
              0);
    EXPECT_EQ(got[1].type, WireType::Heartbeat);
    EXPECT_TRUE(got[1].payload.empty());

    // A flipped payload byte must fail the checksum, loudly.
    std::vector<unsigned char> bad = bytes;
    bad[bad.size() - 1 - 20] ^= 0x40; // last byte of frame 0 payload
    FrameReader r2;
    r2.append(bad.data(), bad.size());
    WireFrame f;
    EXPECT_THROW(r2.next(f), ByteCodecError);

    // Garbage where the header should be is equally fatal (an
    // impossible type/length, not a checksum miss).
    std::vector<unsigned char> junk(64, 0xff);
    FrameReader r3;
    r3.append(junk.data(), junk.size());
    EXPECT_THROW(r3.next(f), ByteCodecError);
}

// The wire bytes are pinned like the file formats': one RunJob
// frame carrying a job index.
TEST(JobCodec, FrameEncodingIsPinned)
{
    ByteWriter w;
    w.u64(42);
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    ASSERT_TRUE(writeFrame(fds[1], WireType::RunJob, w));
    close(fds[1]);
    std::vector<unsigned char> bytes;
    unsigned char chunk[256];
    ssize_t n;
    while ((n = read(fds[0], chunk, sizeof(chunk))) > 0)
        bytes.insert(bytes.end(), chunk, chunk + n);
    close(fds[0]);
    EXPECT_EQ(bytes.size(), 28u);
    EXPECT_EQ(fnv1a64(bytes.data(), bytes.size()),
              0xb23fd544720b5b2aULL);
}

TEST(JobCodec, WorkerInitRoundTrips)
{
    WorkerInit init;
    init.spec.specKind = "manifest";
    init.spec.specText = kManifest;
    init.spec.seedsOverride = 3;
    init.spec.recovery = true;
    init.spec.verifyEquivalence = true;
    init.spec.checkFaults = true;
    init.spec.strict = true;
    init.spec.specFingerprint = 0x1234'5678'9abc'def0ull;
    init.spec.jobCount = 42;
    init.outDir = "/tmp/x";
    init.chaos = "once:segv@5";
    init.memLimitMb = 512;
    init.jobTimeoutSeconds = 1.5;
    init.heartbeatSeconds = 0.25;
    init.metricsPeriod = 50'000;
    init.telemetryDir = "/tmp/tele";

    ByteWriter w;
    encodeWorkerInit(w, init);
    const auto buf = w.take();
    ByteReader r(buf.data(), buf.size());
    const WorkerInit back = decodeWorkerInit(r);

    EXPECT_EQ(back.spec.specKind, init.spec.specKind);
    EXPECT_EQ(back.spec.specText, init.spec.specText);
    EXPECT_EQ(back.spec.seedsOverride, init.spec.seedsOverride);
    EXPECT_EQ(back.spec.recovery, init.spec.recovery);
    EXPECT_EQ(back.spec.verifyEquivalence,
              init.spec.verifyEquivalence);
    EXPECT_EQ(back.spec.checkFaults, init.spec.checkFaults);
    EXPECT_EQ(back.spec.strict, init.spec.strict);
    EXPECT_EQ(back.spec.specFingerprint, init.spec.specFingerprint);
    EXPECT_EQ(back.spec.jobCount, init.spec.jobCount);
    EXPECT_EQ(back.outDir, init.outDir);
    EXPECT_EQ(back.chaos, init.chaos);
    EXPECT_EQ(back.memLimitMb, init.memLimitMb);
    EXPECT_DOUBLE_EQ(back.jobTimeoutSeconds, init.jobTimeoutSeconds);
    EXPECT_DOUBLE_EQ(back.heartbeatSeconds, init.heartbeatSeconds);
    EXPECT_EQ(back.metricsPeriod, init.metricsPeriod);
    EXPECT_EQ(back.telemetryDir, init.telemetryDir);
}

TEST(JobCodec, TelemetryFramesRoundTripOverTheWire)
{
    TelemetryFrame t;
    t.job = 7;
    t.sum.tick = 123'456;
    t.sum.instructions = 98'765;
    t.sum.stores = 4'321;
    t.sum.wbEntries = 17;
    t.line = "{\"tick\":123456,\"v\":{\"core.0.commits\":98765}}";

    ByteWriter w;
    encodeTelemetryFrame(w, t);
    const auto buf = w.take();

    // Telemetry is a legal wire type end-to-end: frame it through a
    // real pipe and back out of the checksummed reader.
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    ASSERT_TRUE(writeFrame(fds[1], WireType::Telemetry, buf.data(),
                           buf.size()));
    close(fds[1]);
    std::vector<unsigned char> bytes;
    unsigned char chunk[256];
    ssize_t n;
    while ((n = read(fds[0], chunk, sizeof(chunk))) > 0)
        bytes.insert(bytes.end(), chunk, chunk + n);
    close(fds[0]);

    FrameReader fr;
    fr.append(bytes.data(), bytes.size());
    WireFrame f;
    ASSERT_TRUE(fr.next(f));
    EXPECT_EQ(f.type, WireType::Telemetry);

    ByteReader r(f.payload.data(), f.payload.size());
    const TelemetryFrame back = decodeTelemetryFrame(r);
    EXPECT_EQ(back.job, t.job);
    EXPECT_EQ(back.sum.tick, t.sum.tick);
    EXPECT_EQ(back.sum.instructions, t.sum.instructions);
    EXPECT_EQ(back.sum.stores, t.sum.stores);
    EXPECT_EQ(back.sum.wbEntries, t.sum.wbEntries);
    EXPECT_EQ(back.line, t.line);
}

TEST(WorkerPool, SpecsRebuildIdenticallyFromTheirDescription)
{
    JournalHeader desc;
    desc.specKind = "manifest";
    desc.specText = kManifest;
    CampaignSpec rebuilt;
    std::string err;
    ASSERT_TRUE(buildCampaignSpec(desc, rebuilt, err)) << err;
    const CampaignSpec direct = poolSpec();
    EXPECT_EQ(jobListFingerprint(rebuilt.expand()),
              jobListFingerprint(direct.expand()));

    // CLI overrides shape the rebuilt job list the same way.
    desc.seedsOverride = 1;
    CampaignSpec fewer;
    ASSERT_TRUE(buildCampaignSpec(desc, fewer, err)) << err;
    EXPECT_EQ(fewer.jobCount(), direct.jobCount() / 2);

    JournalHeader builtin;
    builtin.specKind = "builtin";
    builtin.specText = "fault";
    CampaignSpec fault;
    ASSERT_TRUE(buildCampaignSpec(builtin, fault, err)) << err;
    EXPECT_GT(fault.jobCount(), 0u);

    builtin.specText = "no-such-builtin";
    CampaignSpec bad;
    EXPECT_FALSE(buildCampaignSpec(builtin, bad, err));
    EXPECT_NE(err.find("no-such-builtin"), std::string::npos);

    JournalHeader broken;
    broken.specKind = "manifest";
    broken.specText = "workloads = not-a-benchmark\n";
    EXPECT_FALSE(buildCampaignSpec(broken, bad, err));
}

TEST(WorkerPool, ChaosSpecsParse)
{
    std::string mode;
    std::size_t index = 99;
    bool once = true;
    ASSERT_TRUE(parseChaosSpec("segv@3", mode, index, once));
    EXPECT_EQ(mode, "segv");
    EXPECT_EQ(index, 3u);
    EXPECT_FALSE(once);
    ASSERT_TRUE(parseChaosSpec("once:hang@0", mode, index, once));
    EXPECT_EQ(mode, "hang");
    EXPECT_EQ(index, 0u);
    EXPECT_TRUE(once);
    EXPECT_FALSE(parseChaosSpec("", mode, index, once));
    EXPECT_FALSE(parseChaosSpec("segv", mode, index, once));
    EXPECT_FALSE(parseChaosSpec("warp@1", mode, index, once));
    EXPECT_FALSE(parseChaosSpec("segv@", mode, index, once));
    EXPECT_FALSE(parseChaosSpec("segv@x", mode, index, once));
}

TEST(WorkerPool, ProcessBackendMatchesThreadBackendByteForByte)
{
    const CampaignSpec spec = poolSpec();
    const CampaignResult threads = runThreadBackend(spec, 1);

    CampaignRunner::Options opts = processOpts("", 3);
    CampaignRunner runner(spec, opts);
    const CampaignResult procs = runner.run();

    ASSERT_EQ(procs.jobs.size(), spec.jobCount());
    EXPECT_EQ(procs.summary.done, spec.jobCount());
    expectAggregatesEqual(spec, threads, procs);
    EXPECT_EQ(procs.supervision.workerCrashes, 0u);
    EXPECT_EQ(procs.supervision.workerRestarts, 0u);
    EXPECT_EQ(procs.supervision.inProcessJobs, 0u);
}

TEST(WorkerPool, WorkerSegfaultCostsARespawnNeverAResult)
{
    const CampaignSpec spec = poolSpec();
    const CampaignResult clean = runThreadBackend(spec, 1);

    // One worker slot: after the segfault a respawn is the only way
    // the campaign can make progress, so the restart is observed
    // deterministically (with two slots the survivor can drain the
    // queue before the respawn backoff elapses).
    const std::string dir = freshDir("oncesegv");
    CampaignRunner::Options opts = processOpts(dir, 1);
    opts.process.chaos = "once:segv@1";
    opts.process.backoffBaseSeconds = 0.01;
    CampaignRunner runner(spec, opts);
    const CampaignResult result = runner.run();

    // The killed worker's job was retried elsewhere: every job
    // completed and the report is indistinguishable from a clean
    // run's.
    EXPECT_EQ(result.summary.done, spec.jobCount());
    expectAggregatesEqual(spec, clean, result);
    EXPECT_GE(result.supervision.workerCrashes, 1u);
    EXPECT_GE(result.supervision.workerRestarts, 1u);
    EXPECT_EQ(result.supervision.quarantined, 0u);
}

TEST(WorkerPool, PoisonJobIsQuarantinedAfterConsecutiveKills)
{
    const CampaignSpec spec = poolSpec();
    const std::string dir = freshDir("poison");
    CampaignRunner::Options opts = processOpts(dir);
    opts.process.chaos = "segv@1"; // every worker dies on job 1
    opts.process.poisonThreshold = 2;
    CampaignRunner runner(spec, opts);
    const CampaignResult result = runner.run();

    // The campaign finished despite the poison job...
    ASSERT_EQ(result.jobs.size(), spec.jobCount());
    EXPECT_EQ(result.summary.done, spec.jobCount());
    EXPECT_EQ(result.supervision.quarantined, 1u);
    EXPECT_GE(result.supervision.workerCrashes, 2u);

    // ...and the poison job is a classified, journal-shaped failure
    // with a crash report, while its neighbours are untouched.
    const JobResult &bad = result.jobs[1];
    EXPECT_EQ(bad.verdict, "worker-crash");
    EXPECT_TRUE(bad.infraFailure);
    EXPECT_EQ(bad.attempts, 2);
    EXPECT_NE(bad.crashJson.find("wbsim-crash-1"),
              std::string::npos);
    EXPECT_NE(bad.crashJson.find("worker-crash"),
              std::string::npos);
    EXPECT_TRUE(
        std::filesystem::exists(dir + "/crash-job1.json"));
    EXPECT_EQ(bad.crashReportPath, dir + "/crash-job1.json");
    std::ifstream sidecar(dir + "/crash-job1.json", std::ios::binary);
    std::stringstream bytes;
    bytes << sidecar.rdbuf();
    EXPECT_EQ(bytes.str(), bad.crashJson);
    EXPECT_EQ(result.jobs[0].verdict, "ok");
    EXPECT_EQ(result.jobs[2].verdict, "ok");
    EXPECT_EQ(result.jobs[3].verdict, "ok");
}

TEST(WorkerPool, HungJobDiesByDeadlineAsJobTimeout)
{
    const CampaignSpec spec = poolSpec();
    const std::string dir = freshDir("hang");
    CampaignRunner::Options opts = processOpts(dir);
    opts.process.chaos = "hang@1";
    opts.process.jobTimeoutSeconds = 1.0;
    opts.process.poisonThreshold = 1; // quarantine on first kill
    CampaignRunner runner(spec, opts);
    const CampaignResult result = runner.run();

    EXPECT_EQ(result.summary.done, spec.jobCount());
    EXPECT_GE(result.supervision.jobTimeouts, 1u);
    EXPECT_EQ(result.supervision.quarantined, 1u);
    EXPECT_EQ(result.jobs[1].verdict, "job-timeout");
    EXPECT_TRUE(result.jobs[1].infraFailure);
    EXPECT_EQ(result.jobs[1].outcome, RunOutcome::Deadlock);
}

TEST(WorkerPool, TelemetrySidecarsMatchThreadBackendByteForByte)
{
    const CampaignSpec spec = poolSpec();

    const std::string dt = freshDir("tele-threads");
    CampaignRunner::Options topts;
    topts.jobs = 1;
    topts.progress = false;
    topts.telemetryDir = dt;
    topts.telemetryPeriod = 5'000;
    CampaignRunner threads(spec, topts);
    const CampaignResult a = threads.run();

    const std::string dp = freshDir("tele-procs");
    CampaignRunner::Options popts =
        processOpts(freshDir("tele-out"), 2);
    popts.telemetryDir = dp;
    popts.telemetryPeriod = 5'000;
    CampaignRunner procs(spec, popts);
    const CampaignResult b = procs.run();

    // Same aggregates, and the per-job snapshot streams shipped over
    // the worker pipe byte-match the thread backend's, modulo the
    // wall-clock header key.
    EXPECT_EQ(b.summary.done, spec.jobCount());
    expectAggregatesEqual(spec, a, b);
    for (std::size_t i = 0; i < spec.jobCount(); ++i) {
        const std::string name =
            "/metrics-job" + std::to_string(i) + ".ndjson";
        ASSERT_TRUE(std::filesystem::exists(dt + name)) << name;
        ASSERT_TRUE(std::filesystem::exists(dp + name)) << name;
        EXPECT_EQ(sidecarNoWall(dt + name), sidecarNoWall(dp + name))
            << name;
    }
    EXPECT_TRUE(
        std::filesystem::exists(dp + "/metrics-job0.prom"));
}

TEST(WorkerPool, StalledJobDiesByTelemetryHeartbeat)
{
    const CampaignSpec spec = poolSpec();
    const std::string dir = freshDir("stall");
    CampaignRunner::Options opts = processOpts(dir);
    opts.process.chaos = "hang@1";
    opts.process.heartbeatSeconds = 0.1;
    opts.process.heartbeatGraceSeconds = 1.0;
    opts.process.poisonThreshold = 1; // quarantine on first kill
    opts.telemetryDir = freshDir("stall-tele");
    opts.telemetryPeriod = 5'000;
    CampaignRunner runner(spec, opts);
    const CampaignResult result = runner.run();

    // The hung worker keeps sending wall-clock heartbeats, and no
    // job deadline is armed (jobTimeoutSeconds = 0): only the
    // missing telemetry snapshots can expose the stall.
    EXPECT_EQ(result.summary.done, spec.jobCount());
    EXPECT_GE(result.supervision.jobTimeouts, 1u);
    EXPECT_EQ(result.supervision.quarantined, 1u);
    EXPECT_EQ(result.jobs[1].verdict, "job-timeout");
    EXPECT_TRUE(result.jobs[1].infraFailure);
    EXPECT_EQ(result.jobs[1].outcome, RunOutcome::Deadlock);
    EXPECT_NE(result.jobs[1].detail.find("no telemetry snapshot"),
              std::string::npos)
        << result.jobs[1].detail;
}

TEST(WorkerPool, OomUnderRlimitIsRecordedGracefully)
{
    if (underAddressSanitizer())
        GTEST_SKIP() << "RLIMIT_AS is incompatible with ASan's "
                        "shadow mappings";

    const CampaignSpec spec = poolSpec();
    const std::string dir = freshDir("oom");
    CampaignRunner::Options opts = processOpts(dir);
    opts.process.chaos = "oom@1";
    opts.process.jobMemLimitMb = 512;
    CampaignRunner runner(spec, opts);
    const CampaignResult result = runner.run();

    // bad_alloc inside the worker is a classified result, not a
    // death: no kills, no respawns, every job recorded.
    EXPECT_EQ(result.summary.done, spec.jobCount());
    EXPECT_EQ(result.supervision.jobOoms, 1u);
    EXPECT_EQ(result.supervision.workerCrashes, 0u);
    EXPECT_EQ(result.supervision.workerRestarts, 0u);
    EXPECT_EQ(result.jobs[1].verdict, "job-oom");
    EXPECT_TRUE(result.jobs[1].infraFailure);
    EXPECT_EQ(result.jobs[0].verdict, "ok");
}

TEST(WorkerPool, ExhaustedRespawnBudgetDegradesToInProcess)
{
    const CampaignSpec spec = poolSpec();
    const CampaignResult clean = runThreadBackend(spec, 1);

    const std::string dir = freshDir("degraded");
    CampaignRunner::Options opts = processOpts(dir);
    opts.process.chaos = "segv@0";  // head job kills every worker
    opts.process.maxRespawnsPerWorker = 0;
    opts.process.poisonThreshold = 99; // never quarantine
    CampaignRunner runner(spec, opts);
    const CampaignResult result = runner.run();

    // With no respawn budget and every worker dead, the runner
    // drains the remaining jobs on the thread backend (where the
    // chaos hook is inert) — same report, degraded transport.
    EXPECT_EQ(result.summary.done, spec.jobCount());
    expectAggregatesEqual(spec, clean, result);
    EXPECT_GE(result.supervision.degradedTransitions, 1u);
    EXPECT_GE(result.supervision.inProcessJobs, 1u);
    EXPECT_EQ(result.supervision.workerRestarts, 0u);
    EXPECT_EQ(result.supervision.quarantined, 0u);
}

TEST(WorkerPool, StopFlagDrainsBeforeAssigningAnything)
{
    const CampaignSpec spec = poolSpec();
    std::atomic<bool> stop{true};
    CampaignRunner::Options opts = processOpts("");
    opts.stopFlag = &stop;
    CampaignRunner runner(spec, opts);
    const CampaignResult result = runner.run();
    EXPECT_TRUE(result.interrupted);
    EXPECT_EQ(result.summary.done, 0u);
}

TEST(ResultCache, SurvivesConcurrentMultiProcessWriters)
{
    const std::string dir = freshDir("cacherace");
    const std::string key = "race-key";

    JobResult a;
    a.spec.index = 1;
    a.verdict = "ok";
    a.detail = std::string(2048, 'a'); // big enough to tear
    JobResult b;
    b.spec.index = 2;
    b.verdict = "deadlock";
    b.detail = std::string(2048, 'b');

    // Two child processes race atomic tmp+rename stores of
    // *different* payloads onto the same key while the parent reads
    // continuously. Every successful lookup must decode to exactly
    // one writer's complete record — a torn or mixed entry would
    // either fail the checksum (degrading to a miss) or, worse,
    // surface here as a hybrid.
    const int rounds = 200;
    pid_t pids[2] = {-1, -1};
    const JobResult *payloads[2] = {&a, &b};
    for (int c = 0; c < 2; ++c) {
        pids[c] = fork();
        ASSERT_GE(pids[c], 0);
        if (pids[c] == 0) {
            ResultCache mine(dir);
            for (int i = 0; i < rounds; ++i)
                mine.store(key, *payloads[c]);
            _exit(0);
        }
    }

    ResultCache cache(dir);
    int hits = 0;
    for (int i = 0; i < 20000 && hits < 500; ++i) {
        JobResult got;
        if (!cache.lookup(key, got))
            continue; // miss (incl. corrupt-degraded) is fine
        ++hits;
        const bool isA =
            got.spec.index == a.spec.index &&
            got.verdict == a.verdict && got.detail == a.detail;
        const bool isB =
            got.spec.index == b.spec.index &&
            got.verdict == b.verdict && got.detail == b.detail;
        ASSERT_TRUE(isA || isB)
            << "lookup returned a record neither writer stored";
    }

    for (pid_t p : pids) {
        int status = 0;
        ASSERT_EQ(waitpid(p, &status, 0), p);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }

    // After the dust settles the entry is one writer's, whole.
    JobResult fin;
    ASSERT_TRUE(cache.lookup(key, fin));
    EXPECT_TRUE(fin.detail == a.detail || fin.detail == b.detail);
    EXPECT_GT(hits, 0);
}

int
main(int argc, char **argv)
{
    // Re-exec'd by the supervisor under test: become the worker
    // before gtest can parse anything.
    if (argc > 1 && std::strcmp(argv[1], "--worker") == 0)
        return wb::campaignWorkerMain();
    testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}

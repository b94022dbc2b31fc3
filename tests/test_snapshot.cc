/**
 * @file
 * Snapshot subsystem tests: container codec round-trip, exhaustive
 * hostile-input rejection (every single-bit flip and every
 * truncation length must raise SnapshotError, never crash or decode
 * garbage), config/workload fingerprint sensitivity, witness
 * determinism, and the headline restore guarantee — a system rebuilt
 * cold and replayed to the snapshot tick byte-matches the witness at
 * every section and then finishes with results identical to an
 * uninterrupted run, including mid-transaction ticks with MSHRs busy
 * and fault injection armed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "snapshot/snapshot.hh"
#include "snapshot/system_state.hh"
#include "system/report.hh"
#include "system/system.hh"
#include "workload/benchmarks.hh"
#include "workload/litmus.hh"

using namespace wb;

namespace
{

SnapshotFile
sampleSnapshot()
{
    SnapshotFile snap;
    snap.tick = 12345;
    snap.configFingerprint = 0xdeadbeefcafe1234ULL;
    snap.workloadFingerprint = 0x0123456789abcdefULL;
    snap.add("alpha", {1, 2, 3, 4, 5});
    snap.add("beta", {});
    snap.add("gamma", std::vector<unsigned char>(300, 0xa5));
    return snap;
}

SystemConfig
litmusConfig()
{
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.mesh.width = 2;
    cfg.mesh.height = 2;
    cfg.setMode(CommitMode::OooWB);
    return cfg;
}

/** Cold-run @p wl under @p cfg to completion and report it. */
std::string
coldReport(const SystemConfig &cfg, const Workload &wl)
{
    System sys(cfg, wl);
    const SimResults r = sys.run();
    std::ostringstream os;
    writeJsonReport(os, wl.name, cfg, r, &sys.stats());
    return os.str();
}

/** Odd ticks at one and two thirds of the run, so restore tests
 *  always land mid-run (and mid-transaction for busy workloads)
 *  regardless of how long the workload happens to take. */
std::vector<Tick>
midTicks(const SystemConfig &cfg, const Workload &wl)
{
    System probe(cfg, wl);
    const SimResults r = probe.run();
    EXPECT_TRUE(r.completed);
    return {Tick(r.cycles / 3) | 1, Tick(2 * r.cycles / 3) | 1};
}

/**
 * The full checkpoint/restore cycle at @p tick: witness one run
 * there, rebuild cold, replay, byte-verify, continue, and return
 * the restored run's report (plus the live run's report for
 * comparison).
 */
void
checkRestoreAt(const SystemConfig &cfg, const Workload &wl,
               Tick tick)
{
    const std::uint64_t wl_fp = workloadFingerprint(wl);

    System live(cfg, wl);
    const bool live_paused = live.runToCycle(tick);
    ASSERT_TRUE(live_paused) << "tick " << tick
                             << " must be mid-run for this test";
    ASSERT_EQ(live.cycle(), tick);
    const SnapshotFile snap = buildSnapshot(live, wl_fp);
    EXPECT_EQ(snap.tick, tick);
    const SimResults live_results = [&] {
        live.runToCycle(cfg.maxCycles);
        return live.finishRun();
    }();
    ASSERT_TRUE(live_results.completed);

    // Round-trip through the container bytes, as wbsim --restore
    // does through a file.
    const auto bytes = snap.encode();
    const SnapshotFile loaded =
        SnapshotFile::decode(bytes.data(), bytes.size());

    System restored(cfg, wl);
    ASSERT_TRUE(restored.runToCycle(loaded.tick));
    ASSERT_EQ(restored.cycle(), loaded.tick);
    const std::vector<std::string> diverged =
        verifySnapshot(restored, wl_fp, loaded);
    EXPECT_TRUE(diverged.empty())
        << "first diverged section at tick " << tick << ": "
        << (diverged.empty() ? "" : diverged.front());

    restored.runToCycle(cfg.maxCycles);
    const SimResults rr = restored.finishRun();

    // The restored run's report must be byte-identical to the
    // uninterrupted one.
    std::ostringstream a, b;
    writeJsonReport(a, wl.name, cfg, live_results, &live.stats());
    writeJsonReport(b, wl.name, cfg, rr, &restored.stats());
    EXPECT_EQ(a.str(), b.str());
}

/** A 16-core mesh machine: at most ticks most of its tiles sleep
 *  (docs/PERFORMANCE.md, "Quiet tiles sleep"). */
SystemConfig
meshConfig()
{
    SystemConfig cfg;
    cfg.numCores = 16;
    cfg.setMode(CommitMode::OooWB);
    return cfg;
}

/** Tick counts of every tile of @p sys. */
std::vector<std::uint64_t>
tileTicks(const System &sys)
{
    std::vector<std::uint64_t> ticks;
    for (int i = 0; i < sys.numCores(); ++i)
        ticks.push_back(sys.tileTicks(i));
    return ticks;
}

/** Some tile ran no tick phase between the two tick counts. */
bool
someTileSlept(const std::vector<std::uint64_t> &before,
              const std::vector<std::uint64_t> &after)
{
    for (std::size_t i = 0; i < before.size(); ++i)
        if (before[i] == after[i])
            return true;
    return false;
}

/** The first tick from @p from on at which some tile of a run of
 *  @p wl under @p cfg sleeps. */
Tick
sleepingTick(const SystemConfig &cfg, const Workload &wl, Tick from)
{
    System sys(cfg, wl);
    EXPECT_TRUE(sys.runToCycle(from - 1));
    for (Tick t = from;; ++t) {
        const auto before = tileTicks(sys);
        EXPECT_TRUE(sys.runToCycle(t));
        if (someTileSlept(before, tileTicks(sys)))
            return t;
    }
}

} // namespace

// ---------------------------------------------------------------
// Container codec
// ---------------------------------------------------------------

TEST(SnapshotContainer, EncodeDecodeRoundTrip)
{
    const SnapshotFile snap = sampleSnapshot();
    const auto bytes = snap.encode();
    const SnapshotFile back =
        SnapshotFile::decode(bytes.data(), bytes.size());

    EXPECT_EQ(back.tick, snap.tick);
    EXPECT_EQ(back.configFingerprint, snap.configFingerprint);
    EXPECT_EQ(back.workloadFingerprint, snap.workloadFingerprint);
    ASSERT_EQ(back.sections.size(), snap.sections.size());
    for (std::size_t i = 0; i < snap.sections.size(); ++i) {
        EXPECT_EQ(back.sections[i].name, snap.sections[i].name);
        EXPECT_EQ(back.sections[i].payload,
                  snap.sections[i].payload);
    }
    ASSERT_NE(back.find("beta"), nullptr);
    EXPECT_EQ(back.find("nope"), nullptr);
}

TEST(SnapshotContainer, SaveLoadRoundTrip)
{
    const std::string path =
        testing::TempDir() + "/roundtrip.wbsnap";
    const SnapshotFile snap = sampleSnapshot();
    snap.save(path);
    const SnapshotFile back = SnapshotFile::load(path);
    EXPECT_EQ(back.encode(), snap.encode());
    std::remove(path.c_str());
}

// A save that cannot replace its target (here a directory) throws
// and leaves no temp file next to it.
TEST(SnapshotContainer, FailedSaveLeavesNoTempFile)
{
    namespace fs = std::filesystem;
    const std::string dir = testing::TempDir() + "/snap-save-onto-dir";
    fs::remove_all(dir);
    fs::create_directories(dir + "/target.wbsnap");
    EXPECT_THROW(sampleSnapshot().save(dir + "/target.wbsnap"),
                 SnapshotError);
    std::vector<std::string> left;
    for (const auto &de : fs::directory_iterator(dir))
        left.push_back(de.path().filename().string());
    EXPECT_EQ(left, std::vector<std::string>{"target.wbsnap"});
    fs::remove_all(dir);
}

TEST(SnapshotContainer, LoadMissingFileThrows)
{
    EXPECT_THROW(SnapshotFile::load(testing::TempDir() +
                                    "/does-not-exist.wbsnap"),
                 SnapshotError);
}

// The container is an on-disk format: its bytes for a fixed sample
// are pinned, so a change to the framing code cannot move them.
TEST(SnapshotContainer, EncodingIsPinned)
{
    const auto bytes = sampleSnapshot().encode();
    EXPECT_EQ(bytes.size(), 435u);
    EXPECT_EQ(fnv1a64(bytes.data(), bytes.size()),
              0x26bc55643be2e8e4ULL);
}

// Hostile input: every single-bit flip anywhere in the container
// must be rejected. The trailing whole-file checksum makes this a
// hard guarantee, not a probabilistic one.
TEST(SnapshotContainer, EverySingleBitFlipIsRejected)
{
    const auto bytes = sampleSnapshot().encode();
    for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            auto mutated = bytes;
            mutated[byte] ^= static_cast<unsigned char>(1u << bit);
            EXPECT_THROW(SnapshotFile::decode(mutated.data(),
                                              mutated.size()),
                         SnapshotError)
                << "undetected flip at byte " << byte << " bit "
                << bit;
        }
    }
}

// Hostile input: every proper prefix must be rejected as truncated.
TEST(SnapshotContainer, EveryTruncationLengthIsRejected)
{
    const auto bytes = sampleSnapshot().encode();
    for (std::size_t len = 0; len < bytes.size(); ++len)
        EXPECT_THROW(SnapshotFile::decode(bytes.data(), len),
                     SnapshotError)
            << "undetected truncation to " << len << " bytes";
}

// Hostile input: appended trailing garbage must also be rejected —
// the container knows its own length.
TEST(SnapshotContainer, TrailingGarbageIsRejected)
{
    auto bytes = sampleSnapshot().encode();
    bytes.push_back(0);
    EXPECT_THROW(SnapshotFile::decode(bytes.data(), bytes.size()),
                 SnapshotError);
}

// ---------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------

TEST(SnapshotFingerprint, ConfigFieldsChangeTheFingerprint)
{
    const SystemConfig base = litmusConfig();
    const std::uint64_t fp = configFingerprint(base);
    EXPECT_EQ(fp, configFingerprint(base)) << "must be stable";

    SystemConfig c1 = base;
    c1.core.robSize += 1;
    EXPECT_NE(configFingerprint(c1), fp);

    SystemConfig c2 = base;
    c2.mem.numMshrs += 1;
    EXPECT_NE(configFingerprint(c2), fp);

    SystemConfig c3 = base;
    c3.faults.dropProb = 0.25;
    EXPECT_NE(configFingerprint(c3), fp);

    SystemConfig c4 = base;
    c4.setMode(CommitMode::InOrder);
    EXPECT_NE(configFingerprint(c4), fp);
}

TEST(SnapshotFingerprint, WorkloadChangesTheFingerprint)
{
    const Workload a = makeLitmus(LitmusKind::Table1, 100);
    const Workload b = makeLitmus(LitmusKind::Table1, 101);
    const Workload c = makeBenchmark("fft", 4, 0.05);
    EXPECT_EQ(workloadFingerprint(a),
              workloadFingerprint(makeLitmus(LitmusKind::Table1,
                                             100)));
    EXPECT_NE(workloadFingerprint(a), workloadFingerprint(b));
    EXPECT_NE(workloadFingerprint(a), workloadFingerprint(c));
}

// ---------------------------------------------------------------
// Witness determinism and restore
// ---------------------------------------------------------------

// Two cold builds replayed to the same tick must serialise to the
// same bytes — the witness doubles as a nondeterminism oracle.
TEST(SnapshotWitness, TwoColdRunsProduceIdenticalWitnesses)
{
    const SystemConfig cfg = litmusConfig();
    const Workload wl = makeLitmus(LitmusKind::Table1, 400);
    const std::uint64_t wl_fp = workloadFingerprint(wl);

    System a(cfg, wl);
    System b(cfg, wl);
    ASSERT_TRUE(a.runToCycle(5000));
    ASSERT_TRUE(b.runToCycle(5000));
    EXPECT_EQ(buildSnapshot(a, wl_fp).encode(),
              buildSnapshot(b, wl_fp).encode());
}

TEST(SnapshotWitness, VerifyReportsDivergence)
{
    const SystemConfig cfg = litmusConfig();
    const Workload wl = makeLitmus(LitmusKind::Table1, 400);
    const std::uint64_t wl_fp = workloadFingerprint(wl);

    System sys(cfg, wl);
    ASSERT_TRUE(sys.runToCycle(3000));
    SnapshotFile snap = buildSnapshot(sys, wl_fp);

    EXPECT_TRUE(verifySnapshot(sys, wl_fp, snap).empty());

    SnapshotFile wrong_tick = snap;
    wrong_tick.tick += 1;
    auto d = verifySnapshot(sys, wl_fp, wrong_tick);
    ASSERT_FALSE(d.empty());
    EXPECT_EQ(d.front(), "tick");

    SnapshotFile wrong_payload = snap;
    ASSERT_FALSE(wrong_payload.sections.empty());
    wrong_payload.sections[0].payload.push_back(7);
    d = verifySnapshot(sys, wl_fp, wrong_payload);
    ASSERT_FALSE(d.empty());
    EXPECT_EQ(d.front(), wrong_payload.sections[0].name);
}

namespace
{

/** Bytes and FNV-1a (over name, then payload) of some witness
 *  sections. */
struct SectionsHash
{
    std::size_t bytes = 0;
    std::uint64_t hash = 0xcbf29ce484222325ULL;

    void
    add(const SnapshotSection &s)
    {
        bytes += s.payload.size();
        hash = fnv1a64(s.name, hash);
        hash = fnv1a64(s.payload.data(), s.payload.size(), hash);
    }
};

bool
isCacheSection(const std::string &name)
{
    return name.rfind("l1-", 0) == 0 || name.rfind("llc-", 0) == 0;
}

/** The l1-<i> and llc-<b> sections of a mid-run ocean_ncp witness
 *  under @p cfg. */
struct CacheWitness : SectionsHash
{
    std::uint64_t recalls = 0; //!< Recall messages the LLC sent
};

CacheWitness
cacheWitness(const SystemConfig &cfg)
{
    const Workload wl = makeBenchmark("ocean_ncp", 4, 0.05);
    System sys(cfg, wl);
    EXPECT_TRUE(sys.runToCycle(8001));
    CacheWitness cw;
    for (const SnapshotSection &s :
         buildSnapshot(sys, workloadFingerprint(wl)).sections)
        if (isCacheSection(s.name))
            cw.add(s);
    cw.recalls = sys.stats().sum("llc.*.recalls");
    return cw;
}

} // namespace

// The cache arrays' witness bytes (slot numbering, tags, LRU stamps,
// payloads) are pinned, so a change to how the arrays store their
// lines cannot move them: snapshots written by an older build must
// keep verifying.
TEST(SnapshotWitness, CacheSectionsArePinned)
{
    const CacheWitness dflt = cacheWitness(litmusConfig());
    EXPECT_EQ(dflt.bytes, 222632u);
    EXPECT_EQ(dflt.hash, 0x7b315db4fc89f197ULL);

    // Small enough that victims, the eviction buffer and reused ways
    // all reach the pinned bytes.
    SystemConfig small = litmusConfig();
    small.mem.llcBankSize = 8 * 1024;
    small.mem.llcEvictionBuffer = 2;
    small.mem.l2Size = 8 * 1024;
    small.mem.l1Size = 4 * 1024;
    const CacheWitness tight = cacheWitness(small);
    EXPECT_EQ(tight.bytes, 172193u);
    EXPECT_EQ(tight.hash, 0x06ce75075e9a730eULL);
    EXPECT_GT(tight.recalls, 0u) << "no victim went through the "
                                    "eviction buffer";
}

namespace
{

/** The most arrivals a network witness holds for one (node, tick)
 *  inbox slot. Walks the section's layout: ledger, sequence stamps,
 *  delivery horizons, dedup windows, then the inboxes. */
std::uint64_t
maxArrivalsAtOneTick(const std::vector<unsigned char> &payload,
                     int nodes)
{
    ByteReader r(payload.data(), payload.size());
    for (int i = 0; i < nodes; ++i)
        r.u64(); // next ledger id
    for (std::uint64_t n = r.u64(); n > 0; --n) {
        r.u64();
        r.str();
        r.i64();
        r.i64();
        r.i64();
        r.u64();
        r.u64();
        r.b();
        r.b();
    }
    for (int table = 0; table < 2; ++table)
        for (std::uint64_t n = r.u64(); n > 0; --n)
            r.u64();
    for (int i = 0; i < nodes; ++i) {
        for (std::uint32_t src = r.u32(); src > 0; --src) {
            r.i64();
            r.u64();
            for (std::uint32_t n = r.u32(); n > 0; --n)
                r.u64();
        }
    }
    std::uint64_t most = 0;
    for (int i = 0; i < nodes; ++i) {
        for (std::uint64_t ticks = r.u64(); ticks > 0; --ticks) {
            r.u64();
            std::uint64_t n = r.u64();
            most = std::max(most, n);
            for (; n > 0; --n) {
                r.u64();
                r.u64();
                r.i64();
                r.u8();
                r.u64();
            }
        }
    }
    return most;
}

} // namespace

// The network's witness bytes (in-flight ledger, duplicate windows,
// pending inbox arrivals) are pinned, so a change to how the network
// stores them cannot move them: older snapshots must keep verifying.
TEST(SnapshotWitness, NetworkSectionsArePinned)
{
    // Fault-free: the paper's 16-core HSW mesh, mid-run.
    {
        SystemConfig cfg;
        cfg.numCores = 16;
        cfg.core = makeCoreConfig(CoreClass::HSW);
        cfg.setMode(CommitMode::OooWB);
        const Workload wl = makeBenchmark("fft", 16, 0.02);
        System sys(cfg, wl);
        ASSERT_TRUE(sys.runToCycle(8001));
        SectionsHash net;
        for (const SnapshotSection &s :
             buildSnapshot(sys, workloadFingerprint(wl)).sections)
            if (s.name == "network")
                net.add(s);
        EXPECT_EQ(net.bytes, 94496u);
        EXPECT_EQ(net.hash, 0xf4302ab19e7f44faULL);
    }

    // Recovery armed under a drop + dup + delay + reorder mix, at a
    // tick where the ledger holds a dropped message the transport is
    // retransmitting and one inbox tick holds several arrivals.
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.network = NetworkKind::Ideal;
    cfg.ideal.jitter = 8;
    cfg.setMode(CommitMode::OooWB);
    cfg.recovery.enabled = true;
    std::string err;
    ASSERT_TRUE(parseFaultSpec(
        "delay=0.02:100,reorder=0.03:6:48,dup=0.01,drop=0.008:2",
        cfg.faults, err))
        << err;
    cfg.faults.seed = 2;
    const Workload wl = makeBenchmark("canneal", 4, 0.05);
    System sys(cfg, wl);
    ASSERT_TRUE(sys.runToCycle(2289));
    bool retransmitting = false;
    for (const Network::InFlightMsg &m : sys.network().undelivered())
        retransmitting |= m.dropped && m.retxPending;
    EXPECT_TRUE(retransmitting);
    SectionsHash pinned;
    for (const SnapshotSection &s :
         buildSnapshot(sys, workloadFingerprint(wl)).sections) {
        if (s.name == "network") {
            EXPECT_GE(maxArrivalsAtOneTick(s.payload, 4), 2u);
        }
        if (s.name == "network" || isCacheSection(s.name))
            pinned.add(s);
    }
    EXPECT_EQ(pinned.bytes, 47638u);
    EXPECT_EQ(pinned.hash, 0xb091abb2edcdf2a1ULL);
}

TEST(SnapshotRestore, LitmusAtSeveralTicks)
{
    const SystemConfig cfg = litmusConfig();
    const Workload wl = makeLitmus(LitmusKind::Table1, 400);
    for (Tick tick : {Tick(1000), Tick(3777), Tick(9000)})
        checkRestoreAt(cfg, wl, tick);
}

// A memory-heavy benchmark on a mesh keeps MSHRs, the LLC eviction
// buffer and the network busy; an odd mid-run tick lands inside
// in-flight coherence transactions.
TEST(SnapshotRestore, MidTransactionOnMesh)
{
    const SystemConfig cfg = litmusConfig();
    const Workload wl = makeBenchmark("ocean_ncp", 4, 0.05);
    for (Tick tick : midTicks(cfg, wl))
        checkRestoreAt(cfg, wl, tick);
}

// Fault injection armed (delay + dup) with the recovery layer on:
// the witness must also pin the injector's RNG streams and the
// dedup windows.
TEST(SnapshotRestore, MidRunWithFaultsArmed)
{
    SystemConfig cfg = litmusConfig();
    cfg.faults.seed = 99;
    cfg.faults.delayProb = 0.05;
    cfg.faults.dupProb = 0.02;
    cfg.recovery.enabled = true;
    const Workload wl = makeBenchmark("fft", 4, 0.05);
    for (Tick tick : midTicks(cfg, wl))
        checkRestoreAt(cfg, wl, tick);
}

// runToCycle is a pause, not a teardown: chaining pauses must not
// perturb the final results relative to one uninterrupted run.
TEST(SnapshotRestore, ChainedPausesMatchColdRun)
{
    const SystemConfig cfg = litmusConfig();
    const Workload wl = makeLitmus(LitmusKind::Table1, 200);

    System chained(cfg, wl);
    for (Tick t = 1000; chained.runToCycle(t); t += 1000) {
    }
    const SimResults r = chained.finishRun();
    ASSERT_TRUE(r.completed);

    std::ostringstream os;
    writeJsonReport(os, wl.name, cfg, r, &chained.stats());
    EXPECT_EQ(os.str(), coldReport(cfg, wl));
}

// Sleeping tiles are brought up to date at every pause: a 16-core run
// paused at every tick of a window in which tiles sleep, and at every
// 7th tick through the run, counts every core cycle at each pause and
// reports what one uninterrupted run does.
TEST(SnapshotRestore, PausesInsideSleepMatchColdRun)
{
    const SystemConfig cfg = meshConfig();
    const Workload wl = makeBenchmark("fft", 16, 0.02);
    const Tick window = midTicks(cfg, wl).front();

    System paused(cfg, wl);
    bool slept = false;
    for (Tick t = 1;; ++t) {
        const bool in_window = t >= window && t < window + 300;
        if (!in_window && t % 7 != 0)
            continue;
        const auto before = tileTicks(paused);
        if (!paused.runToCycle(t))
            break;
        slept |= in_window && someTileSlept(before, tileTicks(paused));
        // Every core's counters are up to date at the pause.
        EXPECT_EQ(paused.stats().sum("core.*.cycles"),
                  t * Tick(cfg.numCores));
    }
    EXPECT_TRUE(slept);
    const SimResults r = paused.finishRun();
    ASSERT_TRUE(r.completed);

    std::ostringstream os;
    writeJsonReport(os, wl.name, cfg, r, &paused.stats());
    EXPECT_EQ(os.str(), coldReport(cfg, wl));
}

// A checkpoint taken at a tick where tiles sleep restores with a
// byte-identical witness and report.
TEST(SnapshotRestore, CheckpointInsideSleep)
{
    const SystemConfig cfg = meshConfig();
    const Workload wl = makeBenchmark("fft", 16, 0.02);
    checkRestoreAt(cfg, wl, sleepingTick(cfg, wl, midTicks(cfg, wl)[1]));
}

/** @file Tests for the JSON result reporter. */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>

#include "sim/bytes.hh"
#include "system/report.hh"
#include "workload/benchmarks.hh"
#include "workload/common.hh"
#include "workload/litmus.hh"
#include "workload/synthetic.hh"

namespace wb
{

TEST(Report, JsonEscaping)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
    EXPECT_EQ(jsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(Report, JsonEscapingNonAsciiAndControlBytes)
{
    // Control chars use exactly four hex digits; the escape must go
    // through unsigned char, because a signed-char promotion would
    // sign-extend a negative byte into "\uffffffXX" garbage.
    EXPECT_EQ(jsonEscape(std::string(1, '\x1f')), "\\u001f");
    EXPECT_EQ(jsonEscape(std::string(1, '\0')), "\\u0000");

    // Non-ASCII payload (UTF-8 bytes are all >= 0x80) passes
    // through byte-identical, never escaped, never sign-extended.
    const std::string utf8 = "caf\xc3\xa9 \xe2\x86\x92 d\xc3\xa9j\xc3\xa0";
    EXPECT_EQ(jsonEscape(utf8), utf8);

    const std::string mixed =
        std::string("\x01") + "\xc3\xa9" + "\x1f";
    EXPECT_EQ(jsonEscape(mixed), "\\u0001\xc3\xa9\\u001f");
    EXPECT_EQ(jsonEscape(mixed).find("ffff"), std::string::npos);
}

TEST(Report, RunReportContainsKeyFields)
{
    Workload wl = makeLitmus(LitmusKind::Table1, 100);
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.mesh.width = 2;
    cfg.mesh.height = 2;
    cfg.setMode(CommitMode::OooWB);
    System sys(cfg, wl);
    SimResults r = sys.run();
    ASSERT_TRUE(r.completed);

    std::ostringstream os;
    writeJsonReport(os, wl.name, cfg, r, &sys.stats());
    const std::string j = os.str();

    EXPECT_NE(j.find("\"workload\":\"table1-mp\""),
              std::string::npos);
    EXPECT_NE(j.find("\"commitMode\":\"ooo-writersblock\""),
              std::string::npos);
    EXPECT_NE(j.find("\"completed\":true"), std::string::npos);
    EXPECT_NE(j.find("\"tsoViolations\":0"), std::string::npos);
    EXPECT_NE(j.find("\"stats\":{"), std::string::npos);
    EXPECT_NE(j.find("core.0.commits"), std::string::npos);
    // Histograms are typed objects with percentile fields, not
    // stringified print() lines.
    EXPECT_NE(j.find("\"p95\":"), std::string::npos);
    EXPECT_EQ(j.find("samples="), std::string::npos);
    // Balanced braces (cheap structural sanity).
    EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
              std::count(j.begin(), j.end(), '}'));
}

TEST(Report, OmitsStatsWhenNotRequested)
{
    Workload wl = makeLitmus(LitmusKind::Table1, 20);
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.mesh.width = 2;
    cfg.mesh.height = 2;
    cfg.setMode(CommitMode::InOrder);
    System sys(cfg, wl);
    SimResults r = sys.run();
    std::ostringstream os;
    writeJsonReport(os, wl.name, cfg, r, nullptr);
    EXPECT_EQ(os.str().find("\"stats\""), std::string::npos);
}

TEST(Report, SameSeedRunsAreByteIdentical)
{
    // Determinism pin: two fresh systems over the same (workload,
    // seed, config) must produce byte-identical JSON reports, stats
    // included. This is what makes wbperf's fingerprint comparison
    // against a pre-change baseline meaningful.
    SyntheticParams p;
    p.iterations = 40;
    p.bodyOps = 24;
    p.sharedRatio = 0.4;
    p.seed = 7;
    const Workload wl = makeSynthetic(p, 4);

    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.mesh.width = 2;
    cfg.mesh.height = 2;
    cfg.setMode(CommitMode::OooWB);

    auto once = [&] {
        System sys(cfg, wl);
        const SimResults r = sys.run();
        EXPECT_TRUE(r.completed);
        std::ostringstream os;
        writeJsonReport(os, wl.name, cfg, r, &sys.stats());
        return os.str();
    };
    EXPECT_EQ(once(), once());
}

// Behaviour pin for the core modes no benchmark cell runs: every
// commit mode with out-of-order and with stall-on-use issue, on the
// paper's 16-core HSW mesh and on 4 cores of the jittered ideal
// network. Each run's report, stats included, hashes to a constant,
// so a pipeline change that moves any counter in any mode fails here.
TEST(Report, EveryCoreModeIsPinned)
{
    struct Pin
    {
        CommitMode mode;
        bool inOrderIssue;
        std::uint64_t fft;
        std::uint64_t table1;
    };
    const Pin pins[] = {
        {CommitMode::InOrder, false, 0xdce3649aa1fca970ULL,
         0x97356c478f647f75ULL},
        {CommitMode::InOrder, true, 0x64a51c989e02289fULL,
         0x8d445cb14271c221ULL},
        {CommitMode::OooSafe, false, 0x4dbc9c4a5f1fda32ULL,
         0x36e6e505cc84e40eULL},
        {CommitMode::OooSafe, true, 0x9b5defd168083942ULL,
         0x4da022651fe353b8ULL},
        {CommitMode::OooWB, false, 0x0bdcd8ff264ad55cULL,
         0x6080b3f249a3844fULL},
        {CommitMode::OooWB, true, 0xb9bd00ffde9f8b33ULL,
         0xac046eac7b3cb796ULL},
        {CommitMode::OooUnsafe, false, 0x37c1807e8b7d5d56ULL,
         0x7e6395aa9ef78d0fULL},
        {CommitMode::OooUnsafe, true, 0x8ae03f64585467b7ULL,
         0x3169ddf72c4e9bf1ULL},
    };

    SystemConfig mesh;
    mesh.numCores = 16;
    mesh.core = makeCoreConfig(CoreClass::HSW);
    const Workload fft = makeBenchmark("fft", 16, 0.02);

    SystemConfig ideal;
    ideal.numCores = 4;
    ideal.network = NetworkKind::Ideal;
    ideal.ideal.numNodes = 4;
    ideal.ideal.baseLatency = 8;
    ideal.ideal.jitter = 12;
    const Workload table1 = makeLitmus(LitmusKind::Table1, 300);

    auto hash = [](SystemConfig cfg, const Pin &pin,
                   const Workload &wl, std::size_t &violations) {
        cfg.setMode(pin.mode);
        cfg.core.inOrderIssue = pin.inOrderIssue;
        System sys(cfg, wl);
        const SimResults r = sys.run();
        EXPECT_TRUE(r.completed);
        violations = r.tsoViolations;
        std::ostringstream os;
        writeJsonReport(os, wl.name, cfg, r, &sys.stats());
        return fnv1a64(os.str());
    };
    for (const Pin &pin : pins) {
        SCOPED_TRACE(std::string(commitModeName(pin.mode)) +
                     (pin.inOrderIssue ? " stall-on-use"
                                       : " ooo-issue"));
        std::size_t violations = 0;
        EXPECT_EQ(hash(mesh, pin, fft, violations), pin.fft);
        EXPECT_EQ(hash(ideal, pin, table1, violations), pin.table1);
        // The negative control must stay caught on the litmus test.
        EXPECT_EQ(violations > 0, pin.mode == CommitMode::OooUnsafe);
    }
}

TEST(Report, MemoryConfigsArePinned)
{
    // Memory configurations no wbperf or perfbench cell runs: MSHRs
    // that refuse loads every cycle and a busy reserved SoS entry
    // (two MSHRs, one MSHR), next-line prefetch, and PutS evictions
    // that query the core (small caches, non-silent S evictions).
    SystemConfig mesh;
    mesh.numCores = 16;
    mesh.core = makeCoreConfig(CoreClass::HSW);
    mesh.setMode(CommitMode::OooWB);
    const Workload fft = makeBenchmark("fft", 16, 0.02);

    SystemConfig ideal;
    ideal.numCores = 4;
    ideal.network = NetworkKind::Ideal;
    ideal.ideal.numNodes = 4;
    ideal.ideal.baseLatency = 8;
    ideal.ideal.jitter = 12;
    ideal.setMode(CommitMode::OooWB);
    const Workload table1 = makeLitmus(LitmusKind::Table1, 300);

    auto hash = [](const SystemConfig &cfg, const Workload &wl) {
        System sys(cfg, wl);
        const SimResults r = sys.run();
        EXPECT_TRUE(r.completed);
        EXPECT_EQ(r.tsoViolations, 0u);
        std::ostringstream os;
        writeJsonReport(os, wl.name, cfg, r, &sys.stats());
        return fnv1a64(os.str());
    };

    SystemConfig two_mshrs = mesh;
    two_mshrs.mem.numMshrs = 2;
    EXPECT_EQ(hash(two_mshrs, fft), 0xc874ab402094b466ULL);

    SystemConfig prefetch = mesh;
    prefetch.mem.prefetchNextLine = true;
    EXPECT_EQ(hash(prefetch, fft), 0xe1ee0a070bd18d1eULL);

    SystemConfig puts = mesh;
    puts.mem.silentSharedEvictions = false;
    puts.mem.l2Size = 8 * 1024;
    puts.mem.l1Size = 4 * 1024;
    EXPECT_EQ(hash(puts, fft), 0x418dd08235ca8112ULL);

    SystemConfig one_mshr = ideal;
    one_mshr.mem.numMshrs = 1;
    EXPECT_EQ(hash(one_mshr, table1), 0xe67f2bd9e9c1dfceULL);
}

// Behaviour pins for the work that wakes a sleeping tile or keeps one
// awake: writes waiting in an LLC bank's retry queue (a bank too small
// for its working set, with one eviction-buffer slot), L1 fills retried
// while no way of their set can be evicted (locked down or in
// flight), loads in
// the L1 load-retry queue (one MSHR), fetch stalls after mispredicts
// under both issue policies, and issue bursts wider than the issue
// width. A run is paused at every cycle until its path is seen to
// fire; pausing is exact, so the report is the uninterrupted run's.
TEST(Report, WakeSourcesArePinned)
{
    SystemConfig ideal;
    ideal.numCores = 4;
    ideal.network = NetworkKind::Ideal;
    ideal.ideal.numNodes = 4;
    ideal.ideal.baseLatency = 8;
    ideal.ideal.jitter = 12;
    ideal.core = makeCoreConfig(CoreClass::HSW);
    ideal.setMode(CommitMode::OooWB);
    SyntheticParams sp;
    sp.iterations = 40;
    const Workload syn = makeSynthetic(sp, 4);

    // Runs @p wl under @p cfg, pausing at every cycle when @p fired is
    // set, until fired(sys, cycle) has held at some pause.
    using Probe = std::function<bool(System &, Tick)>;
    auto hash = [](const SystemConfig &cfg, const Workload &wl,
                   const Probe &fired) {
        System sys(cfg, wl);
        bool seen = !fired;
        for (Tick c = 1; !seen && sys.runToCycle(c); ++c)
            seen = fired(sys, c);
        EXPECT_TRUE(seen);
        const SimResults r = sys.run();
        EXPECT_TRUE(r.completed);
        EXPECT_EQ(r.tsoViolations, 0u);
        EXPECT_GT(sys.stats().sum("core.*.branchMispredicts"), 0u);
        std::ostringstream os;
        writeJsonReport(os, wl.name, cfg, r, &sys.stats());
        return fnv1a64(os.str());
    };
    auto any_tile = [](const std::function<bool(System &, int,
                                                Tick)> &f) {
        return [f](System &sys, Tick c) {
            for (int i = 0; i < sys.numCores(); ++i)
                if (f(sys, i, c))
                    return true;
            return false;
        };
    };

    SystemConfig small_llc = ideal;
    small_llc.mem.llcBankSize = 8 * 1024;
    small_llc.mem.llcAssoc = 4;
    small_llc.mem.llcEvictionBuffer = 1;
    const auto llc_retry = any_tile([](System &sys, int i, Tick) {
        return sys.llc(i).retryQueueUse() > 0;
    });
    EXPECT_EQ(hash(small_llc, syn, llc_retry), 0xfa5ffd6b4086c06eULL);

    SystemConfig small_l2 = ideal;
    small_l2.mem.l2Size = 4 * 1024;
    small_l2.mem.l2Assoc = 4;
    small_l2.mem.l1Size = 1024;
    small_l2.mem.l1Assoc = 2;
    const auto fill_retry = any_tile([](System &sys, int i, Tick c) {
        for (const auto &m : sys.l1(i).mshrInfos(c))
            if (m.fillPending)
                return true;
        return false;
    });
    EXPECT_EQ(hash(small_l2, syn, fill_retry), 0x15c078495bae73d8ULL);

    SystemConfig one_mshr = ideal;
    one_mshr.mem.numMshrs = 1;
    one_mshr.mem.l2Size = 2 * 1024;
    one_mshr.mem.l2Assoc = 2;
    one_mshr.mem.l1Size = 1024;
    one_mshr.mem.l1Assoc = 2;
    const auto load_retry = any_tile([](System &sys, int i, Tick) {
        std::ostringstream os;
        sys.l1(i).dumpState(os);
        return os.str().find("retryQ") != std::string::npos;
    });
    EXPECT_EQ(hash(one_mshr, syn, load_retry), 0xec05550cb6357468ULL);

    EXPECT_EQ(hash(ideal, syn, nullptr), 0x5ac155ece0b6af22ULL);
    SystemConfig stall_on_use = ideal;
    stall_on_use.core.inOrderIssue = true;
    EXPECT_EQ(hash(stall_on_use, syn, nullptr), 0x30c9fcc2041df3fdULL);

    // An IQ issue changes nothing commit or the L1 polls read, yet
    // the next tick issues what is left: one mul feeds nine, more
    // than an SLM core issues in a cycle, while an in-order ROB waits
    // on a miss.
    ProgramBuilder b;
    b.li(1, std::int64_t(layout::sharedBase));
    b.li(9, 0);
    b.li(10, 40);
    const auto loop = b.newLabel();
    b.bind(loop);
    b.ld(2, 1);
    b.mul(3, 2, 2);
    for (int j = 0; j < 9; ++j)
        b.mul(Reg(11 + j % 5), 3, 3);
    b.addi(1, 1, 3 * lineBytes);
    b.addi(9, 9, 1);
    b.blt(9, 10, loop);
    b.halt();
    Workload burst;
    burst.name = "mul-burst";
    burst.threads.push_back(b.take());
    SystemConfig slm;
    slm.numCores = 1;
    slm.core = makeCoreConfig(CoreClass::SLM);
    slm.setMode(CommitMode::InOrder);
    EXPECT_EQ(hash(slm, burst, nullptr), 0x795da4fd61f5ea92ULL);
    slm.core.inOrderIssue = true;
    EXPECT_EQ(hash(slm, burst, nullptr), 0x0b11115c87e18968ULL);
}

} // namespace wb

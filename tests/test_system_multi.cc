/**
 * @file
 * System-level property tests:
 *  - data-race-free programs produce architectural state identical
 *    to the SC reference, for every commit mode, network, and core
 *    class (determinism + correctness end to end);
 *  - configuration validation and bookkeeping behave as documented;
 *  - the non-silent eviction mode remains TSO-correct under stress.
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "isa/func_sim.hh"
#include "sim/bytes.hh"
#include "sim/log.hh"
#include "system/report.hh"
#include "system/system.hh"
#include "workload/benchmarks.hh"
#include "workload/common.hh"
#include "workload/litmus.hh"
#include "workload/synthetic.hh"

namespace wb
{

namespace
{

/** DRF workload: disjoint private regions only. */
Workload
drfWorkload(std::uint64_t seed, int threads)
{
    SyntheticParams p;
    p.iterations = 25;
    p.bodyOps = 25;
    p.privateWords = 2048;
    p.sharedRatio = 0.0;
    p.lockRatio = 0.0;
    p.seed = seed;
    return makeSynthetic(p, threads);
}

} // namespace

using DrfParam = std::tuple<CommitMode, NetworkKind, CoreClass>;

class DrfEquivalence : public ::testing::TestWithParam<DrfParam>
{};

TEST_P(DrfEquivalence, ArchStateMatchesReference)
{
    const auto [mode, net, cls] = GetParam();
    Workload wl = drfWorkload(31, 4);
    FuncSim fs(wl);
    ASSERT_TRUE(fs.run());

    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.core = makeCoreConfig(cls);
    cfg.network = net;
    cfg.mesh.width = 2;
    cfg.mesh.height = 2;
    cfg.ideal.jitter = 9;
    cfg.maxCycles = 20'000'000;
    cfg.setMode(mode);
    System sys(cfg, wl);
    SimResults r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.tsoViolations, 0u);
    for (int t = 0; t < 4; ++t)
        for (Reg reg = 1; reg < 16; ++reg)
            EXPECT_EQ(sys.core(t).regValue(reg),
                      fs.readReg(t, reg))
                << "thread " << t << " reg " << int(reg);

    // End-of-run hygiene: the in-flight ledger must be empty and no
    // MSHR or transient directory entry may outlive the run.
    EXPECT_FALSE(r.deadlocked) << r.deadlockReason;
    EXPECT_EQ(r.leakedMessages, 0u);
    EXPECT_EQ(sys.network().inFlight(), 0u);
    std::string why;
    EXPECT_TRUE(sys.cleanTeardown(&why)) << why;
}

namespace
{

std::string
drfName(const ::testing::TestParamInfo<DrfParam> &info)
{
    std::string n = commitModeName(std::get<0>(info.param));
    for (auto &c : n)
        if (c == '-')
            c = '_';
    n += std::get<1>(info.param) == NetworkKind::Mesh ? "_mesh"
                                                      : "_ideal";
    n += std::string("_") +
         coreClassName(std::get<2>(info.param));
    return n;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(
    Sweep, DrfEquivalence,
    ::testing::Combine(
        ::testing::Values(CommitMode::InOrder, CommitMode::OooSafe,
                          CommitMode::OooWB),
        ::testing::Values(NetworkKind::Mesh, NetworkKind::Ideal),
        ::testing::Values(CoreClass::SLM, CoreClass::HSW)),
    drfName);

TEST(SystemMulti, DeterministicAcrossRuns)
{
    Workload wl = makeBenchmark("fmm", 4, 0.05);
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.mesh.width = 2;
    cfg.mesh.height = 2;
    cfg.setMode(CommitMode::OooWB);
    System a(cfg, wl);
    System b(cfg, wl);
    SimResults ra = a.run();
    SimResults rb = b.run();
    ASSERT_TRUE(ra.completed);
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.instructions, rb.instructions);
    EXPECT_EQ(ra.flitHops, rb.flitHops);
    EXPECT_EQ(ra.wbEntries, rb.wbEntries);
}

TEST(SystemMulti, NonSilentEvictionsStayCorrect)
{
    SyntheticParams p;
    p.iterations = 50;
    p.privateWords = 2048;
    // Shared footprint must exceed the 4 KiB L1 below so S-state
    // victims are picked regardless of commit-mode interleaving.
    p.sharedWords = 2048;
    p.sharedRatio = 0.5;
    p.storeRatio = 0.35;
    p.hotRatio = 0.3;
    p.hotWords = 32;
    p.seed = 17;
    Workload wl = makeSynthetic(p, 8);
    for (CommitMode mode :
         {CommitMode::InOrder, CommitMode::OooSafe,
          CommitMode::OooWB}) {
        SystemConfig cfg;
        cfg.numCores = 8;
        cfg.network = NetworkKind::Ideal;
        cfg.ideal.jitter = 8;
        cfg.mem.silentSharedEvictions = false;
        cfg.mem.l1Size = 4 * 1024;
        cfg.mem.l2Size = 8 * 1024; // force evictions
        cfg.maxCycles = 40'000'000;
        cfg.setMode(mode);
        System sys(cfg, wl);
        SimResults r = sys.run();
        ASSERT_TRUE(r.completed)
            << commitModeName(mode) << " deadlocked=" << r.deadlocked;
        EXPECT_EQ(r.tsoViolations, 0u) << commitModeName(mode);
        EXPECT_GT(sys.stats().sum("l1.*.putsShared"), 0u)
            << "non-silent mode never sent a PutS";
    }
}

TEST(SystemMulti, PrefetcherStaysCorrectAndIssues)
{
    // Sequential streaming: the prefetcher must fire and the DRF
    // results must match the reference exactly.
    SyntheticParams p;
    p.iterations = 25;
    p.privateWords = 1 << 13;
    p.sharedRatio = 0.0;
    p.lockRatio = 0.0;
    p.seed = 81;
    Workload wl = makeSynthetic(p, 2);
    FuncSim fs(wl);
    ASSERT_TRUE(fs.run());

    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.mesh.width = 2;
    cfg.mesh.height = 1;
    cfg.mem.prefetchNextLine = true;
    cfg.maxCycles = 20'000'000;
    cfg.setMode(CommitMode::OooWB);
    System sys(cfg, wl);
    SimResults r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.tsoViolations, 0u);
    EXPECT_GT(sys.stats().sum("l1.*.prefetches"), 0u);
    for (int t = 0; t < 2; ++t)
        for (Reg reg = 1; reg < 16; ++reg)
            EXPECT_EQ(sys.core(t).regValue(reg),
                      fs.readReg(t, reg));
}

TEST(SystemMulti, PrefetcherUnderContentionStaysTsoClean)
{
    SyntheticParams p;
    p.iterations = 50;
    p.privateWords = 1024;
    p.sharedWords = 256;
    p.sharedRatio = 0.35;
    p.storeRatio = 0.35;
    p.hotRatio = 0.3;
    p.hotWords = 32;
    p.seed = 82;
    Workload wl = makeSynthetic(p, 8);
    SystemConfig cfg;
    cfg.numCores = 8;
    cfg.network = NetworkKind::Ideal;
    cfg.ideal.jitter = 10;
    cfg.mem.prefetchNextLine = true;
    cfg.mem.numMshrs = 4;
    cfg.maxCycles = 40'000'000;
    cfg.setMode(CommitMode::OooWB);
    System sys(cfg, wl);
    SimResults r = sys.run();
    ASSERT_TRUE(r.completed) << "deadlocked=" << r.deadlocked;
    EXPECT_EQ(r.tsoViolations, 0u);
}

// ---------------------------------------------------------------
// The machines the model can run. SystemConfig::validate is the one
// rulebook: per rule, a config just inside it (validate() is empty
// and System builds) and one just outside (validate() names the
// rule and System throws "fatal: " plus the same text).
// ---------------------------------------------------------------

namespace
{

/** A 4-core machine on a 2x2 mesh with @p edit applied. */
SystemConfig
small(const std::function<void(SystemConfig &)> &edit)
{
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.mesh.fit(4);
    edit(cfg);
    return cfg;
}

/** The 16-core paper machine of paperCampaign and perfbench's
 *  paperConfig. */
SystemConfig
paperMachine(CoreClass cls, CommitMode mode, int shards)
{
    SystemConfig cfg;
    cfg.core = makeCoreConfig(cls);
    cfg.checker = false;
    cfg.maxCycles = 400'000'000;
    cfg.setMode(mode);
    cfg.shards = shards;
    return cfg;
}

struct RuleRow
{
    std::string name;
    SystemConfig cfg;
    int threads;
    std::string refusal; //!< "" = accepted
};

std::vector<RuleRow>
ruleRows()
{
    using C = SystemConfig;
    const std::string layers_off =
        "shards > 1 requires the fault, recovery and observability "
        "layers to be disabled (docs/PARALLEL.md)";
    const std::string recovery_bad =
        "recovery config: cycle parameters must be >= 1";
    const std::string local_bad =
        "network local latency must be >= 1 (a zero-latency "
        "self-send would arrive inside its own tick)";
    const std::string assoc_bad =
        "cache: associativity must be at least 1";
    auto sets_bad = [](std::uint64_t sets) {
        return "cache: number of sets (" + std::to_string(sets) +
               ") must be a power of two";
    };
    auto on_ideal = [](C &c) { c.network = NetworkKind::Ideal; };
    C fig9_wb = paperMachine(CoreClass::SLM, CommitMode::InOrder, 1);
    fig9_wb.core.lockdown = true;
    std::vector<RuleRow> rows = {
        // Machines built today.
        {"defaults", C{}, 16, ""},
        {"in-order", small([](C &c) { c.setMode(CommitMode::InOrder); }),
         4, ""},
        {"ooo-safe", small([](C &c) { c.setMode(CommitMode::OooSafe); }),
         4, ""},
        {"ooo-wb", small([](C &c) { c.setMode(CommitMode::OooWB); }), 4,
         ""},
        {"ooo-unsafe",
         small([](C &c) { c.setMode(CommitMode::OooUnsafe); }), 4, ""},
        {"fig9 in-order lockdown", fig9_wb, 16, ""},
        {"perfbench paper",
         paperMachine(CoreClass::HSW, CommitMode::OooWB, 1), 16, ""},
        {"perfbench paper sharded",
         paperMachine(CoreClass::HSW, CommitMode::OooWB, 2), 16, ""},
        {"perfbench litmus", small([](C &c) {
             c.maxCycles = 30'000'000;
             c.network = NetworkKind::Ideal;
             c.ideal.numNodes = 4;
             c.ideal.baseLatency = 8;
             c.ideal.jitter = 12;
             c.setMode(CommitMode::OooWB);
         }),
         4, ""},

        // threads <= numCores
        {"threads > cores", small([](C &) {}), 5,
         "workload has 5 threads but only 4 cores"},
        {"no threads", small([](C &) {}), 0, ""},

        // 1 <= numCores <= maxCores
        {"1 core", small([](C &c) {
             c.numCores = 1;
             c.mesh.fit(1);
         }),
         1, ""},
        {"0 cores", small([](C &c) { c.numCores = 0; }), 0,
         "numCores must be in [1, 32] (the directory's sharer set), "
         "got 0"},
        {"maxCores", small([](C &c) {
             c.numCores = maxCores;
             c.mesh.fit(maxCores);
         }),
         maxCores, ""},
        {"maxCores + 1", small([](C &c) {
             c.numCores = maxCores + 1;
             c.mesh.fit(maxCores + 1);
         }),
         1,
         "numCores must be in [1, 32] (the directory's sharer set), "
         "got 33"},

        // 1 <= shards <= numCores
        {"0 shards", small([](C &c) { c.shards = 0; }), 4,
         "shards must be in [1, 4], got 0"},
        {"a shard per core", small([](C &c) { c.shards = 4; }), 4, ""},
        {"more shards than cores", small([](C &c) { c.shards = 5; }),
         4, "shards must be in [1, 4], got 5"},

        // no fault, recovery or observability layer at shards > 1
        {"every layer at 1 shard", small([](C &c) {
             c.faults.delayProb = 0.1;
             c.recovery.enabled = true;
             c.obs.flightRecorder = 64;
             c.obs.metrics = true;
             c.obs.timelinePeriod = 100;
             c.obs.metricsPeriod = 100;
             c.obs.trace = unsigned(LogFlag::Core);
         }),
         4, ""},
        {"faults at 2 shards", small([](C &c) {
             c.shards = 2;
             c.faults.dropProb = 0.1;
         }),
         4, layers_off},
        {"unarmed fault spec at 2 shards", small([](C &c) {
             c.shards = 2;
             c.faults.seed = 7;
         }),
         4, ""},
        {"recovery at 2 shards", small([](C &c) {
             c.shards = 2;
             c.recovery.enabled = true;
         }),
         4, layers_off},
        {"flight recorder at 2 shards", small([](C &c) {
             c.shards = 2;
             c.obs.flightRecorder = 64;
         }),
         4, layers_off},
        {"metrics at 2 shards", small([](C &c) {
             c.shards = 2;
             c.obs.metrics = true;
         }),
         4, layers_off},
        {"timeline at 2 shards", small([](C &c) {
             c.shards = 2;
             c.obs.timelinePeriod = 100;
         }),
         4, layers_off},
        {"metrics stream at 2 shards", small([](C &c) {
             c.shards = 2;
             c.obs.metricsPeriod = 100;
         }),
         4, layers_off},
        {"trace at 2 shards", small([](C &c) {
             c.shards = 2;
             c.obs.trace = unsigned(LogFlag::Core);
         }),
         4, layers_off},

        // FaultConfig::validate
        {"certain delay", small([](C &c) {
             c.faults.delayProb = 1.0;
             c.faults.delayMax = 1;
         }),
         4, ""},
        {"delay probability > 1",
         small([](C &c) { c.faults.delayProb = 1.5; }), 4,
         "fault config: delay probability outside [0,1]: 1.5"},
        {"drop without a budget", small([](C &c) {
             c.faults.dropProb = 0.1;
             c.faults.dropMax = 0;
         }),
         4, "fault config: drop armed with zero dropMax"},

        // recovery cycle parameters >= 1
        {"one-cycle recovery", small([](C &c) {
             c.recovery.enabled = true;
             c.recovery.pollCycles = 1;
             c.recovery.retryTimeoutCycles = 1;
             c.recovery.retransmitBaseCycles = 1;
         }),
         4, ""},
        {"recovery pollCycles 0", small([](C &c) {
             c.recovery.enabled = true;
             c.recovery.pollCycles = 0;
         }),
         4, recovery_bad},
        {"recovery retryTimeoutCycles 0", small([](C &c) {
             c.recovery.enabled = true;
             c.recovery.retryTimeoutCycles = 0;
         }),
         4, recovery_bad},
        {"recovery retransmitBaseCycles 0", small([](C &c) {
             c.recovery.enabled = true;
             c.recovery.retransmitBaseCycles = 0;
         }),
         4, recovery_bad},
        {"disarmed recovery ignores its cycles",
         small([](C &c) { c.recovery.pollCycles = 0; }), 4, ""},

        // the mesh holds the cores
        {"3x1 mesh, 4 cores", small([](C &c) {
             c.mesh.width = 3;
             c.mesh.height = 1;
         }),
         4, "mesh too small for 4 cores"},
        {"4x1 mesh, 4 cores", small([](C &c) {
             c.mesh.width = 4;
             c.mesh.height = 1;
         }),
         4, ""},
        {"ideal network ignores the mesh", small([&](C &c) {
             on_ideal(c);
             c.mesh.width = 1;
             c.mesh.height = 1;
         }),
         4, ""},

        // local latency >= 1, lookahead >= 1
        {"one-cycle mesh", small([](C &c) {
             c.mesh.localLatency = 1;
             c.mesh.hopLatency = 1;
         }),
         4, ""},
        {"mesh localLatency 0",
         small([](C &c) { c.mesh.localLatency = 0; }), 4, local_bad},
        {"mesh hopLatency 0", small([](C &c) { c.mesh.hopLatency = 0; }),
         4, "network lookahead must be >= 1"},
        {"one-cycle ideal network", small([&](C &c) {
             on_ideal(c);
             c.ideal.localLatency = 1;
             c.ideal.baseLatency = 1;
         }),
         4, ""},
        {"ideal localLatency 0", small([&](C &c) {
             on_ideal(c);
             c.ideal.localLatency = 0;
         }),
         4, local_bad},
        {"ideal baseLatency 0", small([&](C &c) {
             on_ideal(c);
             c.ideal.baseLatency = 0;
         }),
         4, "network lookahead must be >= 1"},

        // OooWB needs a lockdown core
        {"ooo-wb without lockdown", small([](C &c) {
             c.setMode(CommitMode::OooWB);
             c.core.lockdown = false;
         }),
         4, "OooWB commit requires a lockdown core"},

        // Structures that can never commit; an empty LDT, eviction
        // buffer or writeback buffer runs.
        {"one-entry structures", small([](C &c) {
             c.core.fetchWidth = c.core.commitWidth = 1;
             c.core.iqSize = c.core.robSize = c.core.lqSize = 1;
             c.core.sqSize = c.core.sbSize = c.core.cachePorts = 1;
             c.mem.numMshrs = 1;
         }),
         4, ""},
        {"empty LDT and buffers", small([](C &c) {
             c.setMode(CommitMode::OooWB);
             c.core.ldtSize = 0;
             c.mem.llcEvictionBuffer = 0;
             c.mem.wbBufferSize = 0;
         }),
         4, ""},
        {"ldtSize -1", small([](C &c) { c.core.ldtSize = -1; }), 4,
         "core.ldtSize must be >= 0, got -1"},
    };

    // Cache geometry, for each cache a System builds: one set is
    // inside; no way, no set and three sets are outside, and so are
    // 2^26 ways (64 B times the ways wrapped to a zero divisor in 32
    // bits) and 2^32 + 1 sets (cast to unsigned, it read as one set).
    for (const auto &[cache, size, assoc] :
         {std::tuple{"L1", &MemSystemConfig::l1Size,
                     &MemSystemConfig::l1Assoc},
          {"L2", &MemSystemConfig::l2Size, &MemSystemConfig::l2Assoc},
          {"LLC", &MemSystemConfig::llcBankSize,
           &MemSystemConfig::llcAssoc}}) {
        auto geometry = [size = size, assoc = assoc](std::uint64_t bytes,
                                                     unsigned ways) {
            return small([=](C &c) {
                c.mem.*size = bytes;
                c.mem.*assoc = ways;
            });
        };
        const std::string n = cache;
        rows.push_back({n + " one set", geometry(8 * 64, 8), 4, ""});
        rows.push_back({n + " 0 ways", geometry(8 * 64, 0), 4, assoc_bad});
        rows.push_back({n + " 0 sets", geometry(7 * 64, 8), 4, sets_bad(0)});
        rows.push_back(
            {n + " 3 sets", geometry(3 * 8 * 64, 8), 4, sets_bad(3)});
        rows.push_back({n + " 2^26 ways", geometry(128 * 1024, 1u << 26),
                        4, sets_bad(0)});
        rows.push_back({n + " 2^32 + 1 sets",
                        geometry(((1ull << 32) + 1) * 8 * 64, 8), 4,
                        sets_bad((1ull << 32) + 1)});
    }

    // Each core width or size, and the MSHR count, below 1 is
    // refused by name.
    for (const auto &[field, member] :
         {std::pair{"core.fetchWidth", &CoreConfig::fetchWidth},
          {"core.commitWidth", &CoreConfig::commitWidth},
          {"core.iqSize", &CoreConfig::iqSize},
          {"core.robSize", &CoreConfig::robSize},
          {"core.lqSize", &CoreConfig::lqSize},
          {"core.sqSize", &CoreConfig::sqSize},
          {"core.sbSize", &CoreConfig::sbSize},
          {"core.cachePorts", &CoreConfig::cachePorts}})
        rows.push_back(
            {std::string(field) + " 0",
             small([member = member](C &c) { c.core.*member = 0; }), 4,
             std::string(field) + " must be >= 1, got 0"});
    rows.push_back({"mem.numMshrs 0",
                    small([](C &c) { c.mem.numMshrs = 0; }), 4,
                    "mem.numMshrs must be >= 1, got 0"});
    return rows;
}

/** @p n threads that halt at once. */
Workload
haltingThreads(int n)
{
    Workload wl;
    wl.threads.resize(std::size_t(n),
                      Program{Instr{Opcode::Halt, 0, 0, 0, 0, 0}});
    return wl;
}

} // namespace

TEST(SystemMulti, ConfigRules)
{
    for (const RuleRow &row : ruleRows()) {
        SCOPED_TRACE(row.name);
        EXPECT_EQ(row.cfg.validate(row.threads), row.refusal);
        try {
            System sys(row.cfg, haltingThreads(row.threads));
            EXPECT_EQ(row.refusal, "") << "System built a refused config";
        } catch (const std::runtime_error &e) {
            EXPECT_EQ(e.what(), "fatal: " + row.refusal);
        }
    }
}

TEST(SystemMulti, MaxCyclesCapsRun)
{
    // An endless spin on one core: run() must stop at maxCycles and
    // report not-completed without deadlock.
    ProgramBuilder b;
    auto loop = b.newLabel();
    b.bind(loop);
    b.addi(1, 1, 1);
    b.jmp(loop);
    Workload wl;
    wl.threads.push_back(b.take());
    SystemConfig cfg;
    cfg.numCores = 1;
    cfg.maxCycles = 20'000;
    System sys(cfg, wl);
    SimResults r = sys.run();
    EXPECT_FALSE(r.completed);
    EXPECT_FALSE(r.deadlocked); // it commits, it's just endless
    EXPECT_GE(r.cycles, 20'000u);
}

TEST(SystemMulti, DescribeConfigMentionsKeyParams)
{
    SystemConfig cfg;
    cfg.setMode(CommitMode::OooWB);
    const std::string d = describeConfig(cfg);
    EXPECT_NE(d.find("WritersBlock"), std::string::npos);
    EXPECT_NE(d.find("ROB 32"), std::string::npos);
    EXPECT_NE(d.find("LDT 32"), std::string::npos);
    cfg.setMode(CommitMode::InOrder);
    EXPECT_NE(describeConfig(cfg).find("base directory"),
              std::string::npos);
}

TEST(SystemMulti, PeekCoherentFindsFreshestCopy)
{
    // Store on core 0 (dirty in its L1), then read via the API.
    ProgramBuilder b;
    b.li(1, std::int64_t(layout::sharedBase));
    b.li(2, 5150);
    b.st(1, 2);
    b.halt();
    Workload wl;
    wl.threads.push_back(b.take());
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.mesh.width = 2;
    cfg.mesh.height = 1;
    System sys(cfg, wl);
    ASSERT_TRUE(sys.run().completed);
    // The line is still dirty in core 0's cache; memory is stale.
    EXPECT_EQ(sys.peekCoherent(layout::sharedBase), 5150u);
    EXPECT_EQ(sys.memory().peek(layout::sharedBase), 0u);
}

TEST(SystemMulti, SnapshotAggregatesCounters)
{
    Workload wl = makeBenchmark("water_sp", 4, 0.05);
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.mesh.width = 2;
    cfg.mesh.height = 2;
    cfg.setMode(CommitMode::OooWB);
    System sys(cfg, wl);
    SimResults r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_GT(r.instructions, 0u);
    EXPECT_GT(r.loads, 0u);
    EXPECT_GT(r.stores, 0u);
    EXPECT_GT(r.messages, 0u);
    EXPECT_GT(r.flitHops, 0u);
    EXPECT_EQ(r.instructions, sys.stats().sum("core.*.commits"));
}

// A tile with nothing to do is not ticked. On 16 mesh cores the
// store-buffer litmus test runs two threads and the other 14 tiles
// only halt: each of those sleeps after a few ticks. Its cycle counter
// still counts every cycle, and the report is the one ticking every
// tile on every cycle gave.
TEST(SystemMulti, IdleTilesAreNotTicked)
{
    SystemConfig cfg;
    cfg.numCores = 16;
    const Workload wl = makeLitmus(LitmusKind::StoreBuffer, 300);
    System sys(cfg, wl);
    const SimResults r = sys.run();
    ASSERT_TRUE(r.completed);
    for (int i = 0; i < cfg.numCores; ++i) {
        SCOPED_TRACE("tile " + std::to_string(i));
        EXPECT_EQ(sys.stats().sum("core." + std::to_string(i) +
                                  ".cycles"),
                  sys.cycle());
        if (i >= 2) {
            EXPECT_LE(sys.tileTicks(i), 4u);
        }
    }
    EXPECT_GT(sys.tileTicks(0), 4u);
    std::ostringstream os;
    writeJsonReport(os, wl.name, cfg, r, &sys.stats());
    EXPECT_EQ(fnv1a64(os.str()), 0x6cd39caa2bde92b1ULL);
}

} // namespace wb

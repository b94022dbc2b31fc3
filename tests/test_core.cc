/**
 * @file
 * Core-model unit tests: store-to-load forwarding, branch and
 * memory-dependence speculation, LDT behaviour, commit disciplines.
 * Each test runs a small program on a 1-2 core system and checks
 * architectural results plus the relevant microarchitectural
 * counters.
 */

#include <gtest/gtest.h>

#include "isa/func_sim.hh"
#include "sim/bytes.hh"
#include "system/system.hh"
#include "workload/benchmarks.hh"
#include "workload/common.hh"
#include "workload/litmus.hh"
#include "workload/synthetic.hh"

namespace wb
{

namespace
{

SystemConfig
cfg1(CommitMode mode = CommitMode::InOrder)
{
    SystemConfig c;
    c.numCores = 1;
    c.maxCycles = 4'000'000;
    c.setMode(mode);
    return c;
}

std::uint64_t
stat(System &sys, const std::string &name)
{
    return sys.stats().counterValue(name);
}

} // namespace

TEST(Core, StoreToLoadForwarding)
{
    // A load immediately after a store to the same address must get
    // the store's value from the SQ/SB, long before the store
    // performs (the line is not even cached yet).
    ProgramBuilder b;
    b.li(1, std::int64_t(layout::sharedBase));
    b.li(2, 4242);
    b.st(1, 2);
    b.ld(3, 1);
    b.halt();
    Workload wl;
    wl.threads.push_back(b.take());
    System sys(cfg1(), wl);
    SimResults r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(sys.core(0).regValue(3), 4242u);
    EXPECT_GE(stat(sys, "core.0.forwardedLoads"), 1u);
}

TEST(Core, ForwardingPicksYoungestMatch)
{
    ProgramBuilder b;
    b.li(1, std::int64_t(layout::sharedBase));
    b.li(2, 1);
    b.li(3, 2);
    b.st(1, 2); // older store: 1
    b.st(1, 3); // younger store: 2
    b.ld(4, 1); // must see 2
    b.halt();
    Workload wl;
    wl.threads.push_back(b.take());
    System sys(cfg1(), wl);
    ASSERT_TRUE(sys.run().completed);
    EXPECT_EQ(sys.core(0).regValue(4), 2u);
}

TEST(Core, StoreToAliasingWordDoesNotForward)
{
    // The store and the load are 8 KiB apart, so they share a slot of
    // the core's store-word filter (1024 slots over word numbers).
    // The slot only tells the load to walk the SQ and SB: the walk
    // finds no matching word, and the load reads memory.
    const Addr store_addr = layout::sharedBase;
    const Addr load_addr = layout::sharedBase + 8 * 1024;
    ProgramBuilder b;
    b.li(1, std::int64_t(store_addr));
    b.li(2, std::int64_t(load_addr));
    b.li(3, 4242);
    b.st(1, 3);
    b.ld(4, 2);
    b.halt();
    Workload wl;
    wl.threads.push_back(b.take());
    wl.initMem.emplace_back(load_addr, 99);
    for (CommitMode mode : {CommitMode::InOrder, CommitMode::OooWB}) {
        SCOPED_TRACE(commitModeName(mode));
        System sys(cfg1(mode), wl);
        SimResults r = sys.run();
        ASSERT_TRUE(r.completed);
        EXPECT_EQ(sys.core(0).regValue(4), 99u);
        EXPECT_EQ(stat(sys, "core.0.forwardedLoads"), 0u);
        EXPECT_EQ(sys.peekCoherent(store_addr), 4242u);
    }
}

TEST(Core, SquashedStoreDoesNotForward)
{
    // The bne depends on a cache-missing load and is predicted not
    // taken, so the store after it executes on the wrong path. The
    // squash removes it; the correct-path load of the same word must
    // read memory, not the squashed store's value.
    const Addr flag = layout::sharedBase;
    const Addr word = layout::sharedBase + 0x1000;
    ProgramBuilder b;
    b.li(1, std::int64_t(flag));
    b.li(2, std::int64_t(word));
    b.li(3, 555);
    b.li(6, 0);
    auto skip = b.newLabel();
    b.ld(4, 1);          // cache miss: 1
    b.bne(4, 6, skip);   // taken, predicted not taken
    b.st(2, 3);          // wrong path only
    b.bind(skip);
    b.ld(5, 2);          // must read 77
    b.halt();
    Workload wl;
    wl.threads.push_back(b.take());
    wl.initMem.emplace_back(flag, 1);
    wl.initMem.emplace_back(word, 77);
    for (CommitMode mode : {CommitMode::InOrder, CommitMode::OooWB}) {
        SCOPED_TRACE(commitModeName(mode));
        System sys(cfg1(mode), wl);
        SimResults r = sys.run();
        ASSERT_TRUE(r.completed);
        EXPECT_GE(stat(sys, "core.0.squashBranch"), 1u);
        // Only the wrong-path copy of the load forwarded: the store
        // had its address in the SQ before the squash.
        EXPECT_EQ(stat(sys, "core.0.forwardedLoads"), 1u);
        EXPECT_EQ(sys.core(0).regValue(5), 77u);
        EXPECT_EQ(sys.peekCoherent(word), 77u);
    }
}

TEST(Core, MemoryDependenceSpeculationRepairs)
{
    // The store's address depends on a cache-missing load, so the
    // younger load issues speculatively, reads stale data, and must
    // be squashed and re-executed when the store resolves.
    ProgramBuilder b;
    b.li(1, std::int64_t(layout::sharedBase));         // slow ptr
    b.li(2, std::int64_t(layout::sharedBase) + 0x800); // target
    b.li(3, 77);
    b.ld(4, 1);    // cache miss: returns sharedBase+0x800 (poked)
    b.st(4, 3);    // address unknown until the load returns
    b.ld(5, 2);    // same address: must see 77, not stale 0
    b.halt();
    Workload wl;
    wl.threads.push_back(b.take());
    wl.initMem.emplace_back(layout::sharedBase,
                            layout::sharedBase + 0x800);
    System sys(cfg1(CommitMode::InOrder), wl);
    SimResults r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(sys.core(0).regValue(5), 77u);
    EXPECT_EQ(r.tsoViolations, 0u);
}

TEST(Core, BranchMispredictionsAreRepaired)
{
    // Data-dependent branch pattern with an accumulating result: a
    // wrong-path leak would change the final value.
    ProgramBuilder b;
    b.li(1, 0);    // i
    b.li(2, 200);  // limit
    b.li(3, 0);    // acc
    b.li(4, 12345);
    auto loop = b.newLabel();
    auto skip = b.newLabel();
    b.bind(loop);
    b.mul(4, 4, 4);
    b.andi(5, 4, 0x10);
    b.beq(5, 0, skip);
    b.addi(3, 3, 1); // taken path increments
    b.bind(skip);
    b.addi(1, 1, 1);
    b.blt(1, 2, loop);
    b.halt();
    Workload wl;
    wl.threads.push_back(b.take());

    FuncSim fs(wl);
    ASSERT_TRUE(fs.run());

    for (CommitMode mode : {CommitMode::InOrder, CommitMode::OooWB}) {
        System sys(cfg1(mode), wl);
        SimResults r = sys.run();
        ASSERT_TRUE(r.completed);
        EXPECT_EQ(sys.core(0).regValue(3), fs.readReg(0, 3))
            << commitModeName(mode);
    }
}

TEST(Core, LdtZeroDisablesReorderedCommit)
{
    SyntheticParams p;
    p.iterations = 40;
    p.privateWords = 1 << 14; // force misses
    p.memRatio = 0.5;
    p.sharedRatio = 0.0;
    p.lockRatio = 0.0;
    p.seed = 3;
    Workload wl = makeSynthetic(p, 1);

    SystemConfig with_ldt = cfg1(CommitMode::OooWB);
    System s1(with_ldt, wl);
    ASSERT_TRUE(s1.run().completed);
    EXPECT_GT(stat(s1, "core.0.ldtExports"), 0u);

    SystemConfig no_ldt = cfg1(CommitMode::OooWB);
    no_ldt.core.ldtSize = 0;
    System s2(no_ldt, wl);
    ASSERT_TRUE(s2.run().completed);
    EXPECT_EQ(stat(s2, "core.0.ldtExports"), 0u);
}

TEST(Core, OooCommitNeverExceedsLdtBound)
{
    SyntheticParams p;
    p.iterations = 60;
    p.privateWords = 1 << 14;
    p.sharedRatio = 0.0;
    p.lockRatio = 0.0;
    p.seed = 8;
    Workload wl = makeSynthetic(p, 1);
    SystemConfig c = cfg1(CommitMode::OooWB);
    c.core.ldtSize = 2;
    System sys(c, wl);
    SimResults r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(r.tsoViolations, 0u);
    // Fewer exports possible than with a big LDT, never unsafe.
}

TEST(Core, InOrderIpcBoundedByWidth)
{
    ProgramBuilder b;
    b.li(1, 0);
    for (int i = 0; i < 4000; ++i)
        b.addi(1, 1, 1);
    b.halt();
    Workload wl;
    wl.threads.push_back(b.take());
    System sys(cfg1(), wl);
    SimResults r = sys.run();
    ASSERT_TRUE(r.completed);
    // commit width 4: at least instructions/4 cycles.
    EXPECT_GE(r.cycles, r.instructions / 4);
}

TEST(Core, SerialDependenceChainLimitsIpc)
{
    // mul chain: 3 cycles each, fully serial.
    ProgramBuilder b;
    b.li(1, 3);
    for (int i = 0; i < 1000; ++i)
        b.mul(1, 1, 1);
    b.halt();
    Workload wl;
    wl.threads.push_back(b.take());
    System sys(cfg1(), wl);
    SimResults r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_GE(r.cycles, 3000u); // >= chain latency
}

TEST(Core, StallAttributionCoversStalls)
{
    SyntheticParams p;
    p.iterations = 40;
    p.privateWords = 1 << 14;
    p.seed = 12;
    Workload wl = makeSynthetic(p, 1);
    System sys(cfg1(), wl);
    SimResults r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_LE(r.stallRob + r.stallLq + r.stallSq + r.stallOther,
              r.coreCycles);
    EXPECT_GT(r.stallRob + r.stallLq + r.stallSq + r.stallOther,
              0u);
}

TEST(Core, AtomicActsAsLoadBarrier)
{
    // ld after amoswap to the same word must observe the swap.
    ProgramBuilder b;
    b.li(1, std::int64_t(layout::sharedBase));
    b.li(2, 9);
    b.amoswap(3, 1, 2); // [base]=9, r3=0
    b.ld(4, 1);         // must be 9
    b.halt();
    Workload wl;
    wl.threads.push_back(b.take());
    for (CommitMode mode :
         {CommitMode::InOrder, CommitMode::OooSafe,
          CommitMode::OooWB}) {
        System sys(cfg1(mode), wl);
        ASSERT_TRUE(sys.run().completed);
        EXPECT_EQ(sys.core(0).regValue(3), 0u);
        EXPECT_EQ(sys.core(0).regValue(4), 9u);
    }
}

TEST(Core, FenceDrainsStoreBufferBeforeLaterLoads)
{
    // st [A]; fence; ld [B] — the load must not issue before the
    // store performed, so the fence costs at least the store's
    // write-permission round trip.
    ProgramBuilder fast;
    fast.li(1, std::int64_t(layout::sharedBase));
    fast.li(2, std::int64_t(layout::sharedBase) + 0x1000);
    fast.li(3, 7);
    fast.st(1, 3);
    fast.ld(4, 2);
    fast.halt();
    ProgramBuilder fenced;
    fenced.li(1, std::int64_t(layout::sharedBase));
    fenced.li(2, std::int64_t(layout::sharedBase) + 0x1000);
    fenced.li(3, 7);
    fenced.st(1, 3);
    fenced.fence();
    fenced.ld(4, 2);
    fenced.halt();

    Workload a, b;
    a.threads.push_back(fast.take());
    b.threads.push_back(fenced.take());
    System s1(cfg1(CommitMode::OooWB), a);
    System s2(cfg1(CommitMode::OooWB), b);
    SimResults r1 = s1.run();
    SimResults r2 = s2.run();
    ASSERT_TRUE(r1.completed && r2.completed);
    EXPECT_GT(r2.cycles, r1.cycles)
        << "fence did not serialise the store with the load";
    EXPECT_EQ(s2.core(0).regValue(4), 0u);
}

TEST(Core, HaltDrainsStoreBuffer)
{
    ProgramBuilder b;
    b.li(1, std::int64_t(layout::sharedBase));
    b.li(2, 31);
    b.st(1, 2);
    b.halt();
    Workload wl;
    wl.threads.push_back(b.take());
    System sys(cfg1(), wl);
    SimResults r = sys.run();
    ASSERT_TRUE(r.completed);
    // done() requires the SB drained: the store must be visible.
    EXPECT_EQ(sys.peekCoherent(layout::sharedBase), 31u);
}

TEST(Core, InOrderIssueMatchesReferenceAndIsSlower)
{
    SyntheticParams p;
    p.iterations = 30;
    p.bodyOps = 30;
    p.privateWords = 1 << 13;
    p.sharedRatio = 0.0;
    p.lockRatio = 0.0;
    p.seed = 44;
    Workload wl = makeSynthetic(p, 1);
    FuncSim fs(wl);
    ASSERT_TRUE(fs.run());

    SystemConfig ooo = cfg1();
    System s1(ooo, wl);
    SimResults r1 = s1.run();
    ASSERT_TRUE(r1.completed);

    SystemConfig stall_on_use = cfg1();
    stall_on_use.core.inOrderIssue = true;
    System s2(stall_on_use, wl);
    SimResults r2 = s2.run();
    ASSERT_TRUE(r2.completed);

    for (Reg reg = 1; reg < 16; ++reg) {
        EXPECT_EQ(s1.core(0).regValue(reg), fs.readReg(0, reg));
        EXPECT_EQ(s2.core(0).regValue(reg), fs.readReg(0, reg));
    }
    // Stall-on-use cannot beat full OoO issue.
    EXPECT_GE(r2.cycles, r1.cycles);
}

TEST(Core, Ev5StyleCoreWithLockdownsStaysTsoCorrect)
{
    // The paper's first motivating use case: an in-order-issue,
    // stall-on-use core with early commit of loads. With a lockdown
    // core + WritersBlock protocol and in-order commit, reordered
    // (hit-under-miss) loads never squash and TSO holds.
    SyntheticParams p;
    p.iterations = 40;
    p.privateWords = 1024;
    p.sharedWords = 256;
    p.sharedRatio = 0.35;
    p.storeRatio = 0.35;
    p.hotRatio = 0.3;
    p.hotWords = 32;
    p.seed = 45;
    Workload wl = makeSynthetic(p, 4);
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.network = NetworkKind::Ideal;
    cfg.ideal.jitter = 10;
    cfg.maxCycles = 20'000'000;
    cfg.setMode(CommitMode::InOrder);
    cfg.core.inOrderIssue = true;
    cfg.core.lockdown = true;      // ECL: no squash machinery used
    System sys(cfg, wl);
    SimResults r = sys.run();
    ASSERT_TRUE(r.completed) << "deadlocked=" << r.deadlocked;
    EXPECT_EQ(r.tsoViolations, 0u);
    EXPECT_EQ(r.squashInv, 0u) << "lockdown core must not squash "
                                  "for consistency";
}

TEST(Core, SquashReleasesLockdowns)
{
    // Lockdown-capable core under branch-heavy, miss-heavy load:
    // squashes must not leak lockdown registry entries (the run
    // would otherwise deadlock behind a permanently blocked write).
    SyntheticParams p;
    p.iterations = 60;
    p.privateWords = 1 << 13;
    p.sharedWords = 256;
    p.sharedRatio = 0.4;
    p.storeRatio = 0.4;
    p.branchRatio = 0.25;
    p.unpredictable = 0.8;
    p.lockRatio = 0.0;
    p.seed = 21;
    Workload wl = makeSynthetic(p, 2);
    SystemConfig c = cfg1(CommitMode::OooWB);
    c.numCores = 2;
    System sys(c, wl);
    SimResults r = sys.run();
    ASSERT_TRUE(r.completed) << "deadlocked=" << r.deadlocked;
    EXPECT_EQ(r.tsoViolations, 0u);
}

// Behaviour pin for the commit scan: every retire of every core in
// the order the commit hook sees it, then each core's cycles and
// out-of-order commits, in every commit mode with out-of-order and
// with stall-on-use issue. Report.EveryCoreModeIsPinned hashes only
// the end-of-run report; this pins the retire stream itself, on the
// 16-core HSW mesh, the jittered ideal network, a miss-heavy core
// whose two-entry LDT and store buffer fill up and refuse exports and
// stores, which the paper cells rarely do, and fences and atomics
// that stop the scan.
TEST(Core, CommitStreamIsPinned)
{
    struct Pin
    {
        CommitMode mode;
        bool inOrderIssue;
        std::uint64_t fft;
        std::uint64_t table1;
        std::uint64_t missHeavy;
        std::uint64_t fenced;
    };
    const Pin pins[] = {
        {CommitMode::InOrder, false, 0xdb19808a0cb227feULL,
         0xec183f2b681c89c9ULL, 0x5d57d30b7e01c10aULL,
         0x6886d39adc3ba896ULL},
        {CommitMode::InOrder, true, 0x226bec7ba09d1986ULL,
         0x986584ccfe073416ULL, 0x88a316f29221cf50ULL,
         0x8116fda32ac22c6aULL},
        {CommitMode::OooSafe, false, 0x5a9bbc4c096b6f3dULL,
         0xac4e1460c4c8ec20ULL, 0x045cc203da38be70ULL,
         0xebe309411478d85cULL},
        {CommitMode::OooSafe, true, 0x7a09a69e379e6e04ULL,
         0xd6b48fe14c04b6f0ULL, 0x800e5af999105072ULL,
         0xe4ce6f837930ad1cULL},
        {CommitMode::OooWB, false, 0x1216b3728e9b2c22ULL,
         0x54051d128c928b74ULL, 0xe1762a89ed532b7dULL,
         0xfc36c6003d362993ULL},
        {CommitMode::OooWB, true, 0xc0b265472cfefaa0ULL,
         0xe0168cdf70a90152ULL, 0x06a99b1bd6a78503ULL,
         0xe537ac83895af1deULL},
        {CommitMode::OooUnsafe, false, 0x4d742ef9ffa1a729ULL,
         0x95c78c021a69f243ULL, 0x0973e76d4f2d64aeULL,
         0x596f4583a7934518ULL},
        {CommitMode::OooUnsafe, true, 0xc0b265472cfefaa0ULL,
         0x7ede423bcf31eed5ULL, 0xe8064dfa6351cf7dULL,
         0xe537ac83895af1deULL},
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
    const Workload sb_fence =
        makeLitmus(LitmusKind::StoreBufferFenced, 200);
    SyntheticParams lp;
    lp.iterations = 40;
    lp.sharedRatio = 0.4;
    lp.lockRatio = 0.05;
    lp.seed = 9;
    const Workload locks = makeSynthetic(lp, 4);

    SystemConfig small = cfg1();
    small.core.ldtSize = 2;
    small.core.sbSize = 2;
    SyntheticParams mp;
    mp.iterations = 60;
    mp.privateWords = 1 << 14;
    mp.memRatio = 0.5;
    mp.sharedRatio = 0.0;
    mp.lockRatio = 0.0;
    mp.seed = 5;
    const Workload miss_heavy = makeSynthetic(mp, 1);

    struct Stream
    {
        std::uint64_t hash = 0xcbf29ce484222325ULL; // FNV-1a basis
        std::uint64_t ldtExports = 0;
        std::uint64_t stallSqFull = 0;
        std::uint64_t atomics = 0;

        void
        mix(std::uint64_t v)
        {
            hash = fnv1a64(&v, sizeof v, hash);
        }
    };
    auto run = [](SystemConfig cfg, const Pin &pin, const Workload &wl,
                  Stream &s) {
        cfg.setMode(pin.mode);
        cfg.core.inOrderIssue = pin.inOrderIssue;
        System sys(cfg, wl);
        for (int i = 0; i < sys.numCores(); ++i)
            sys.core(i).setCommitHook(
                [&s, i](InstSeqNum seq, int pc, const Instr &,
                        Addr ea) {
                    s.mix(std::uint64_t(i));
                    s.mix(seq);
                    s.mix(std::uint64_t(pc));
                    s.mix(ea);
                });
        EXPECT_TRUE(sys.run().completed);
        for (int i = 0; i < sys.numCores(); ++i) {
            const std::string core = "core." + std::to_string(i) + ".";
            s.mix(stat(sys, core + "cycles"));
            s.mix(stat(sys, core + "oooCommits"));
            s.ldtExports += stat(sys, core + "ldtExports");
            s.stallSqFull += stat(sys, core + "stallSqFull");
            s.atomics += stat(sys, core + "atomics");
        }
    };
    for (const Pin &pin : pins) {
        SCOPED_TRACE(std::string(commitModeName(pin.mode)) +
                     (pin.inOrderIssue ? " stall-on-use"
                                       : " ooo-issue"));
        Stream s_fft, s_table1, s_miss, s_fenced;
        run(mesh, pin, fft, s_fft);
        run(ideal, pin, table1, s_table1);
        run(small, pin, miss_heavy, s_miss);
        run(ideal, pin, sb_fence, s_fenced);
        run(ideal, pin, locks, s_fenced);
        EXPECT_EQ(s_fft.hash, pin.fft);
        EXPECT_EQ(s_table1.hash, pin.table1);
        EXPECT_EQ(s_miss.hash, pin.missHeavy);
        EXPECT_EQ(s_fenced.hash, pin.fenced);
        // The small core must refuse stores for a full SB, and in
        // OooWB export lockdowns to its two-entry LDT.
        EXPECT_GT(s_miss.stallSqFull, 0u);
        EXPECT_EQ(s_miss.ldtExports > 0, pin.mode == CommitMode::OooWB);
        EXPECT_GT(s_fenced.atomics, 0u);
    }
}

} // namespace wb

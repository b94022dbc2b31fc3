/**
 * @file
 * Litmus tests for the paper's running examples (Tables 1-3).
 *
 * These are the heart of the reproduction's correctness claim:
 *  - under every supported mode the illegal TSO outcome {new, old}
 *    never appears and the dynamic checker stays clean;
 *  - under the OoO+WritersBlock mode the mechanism demonstrably
 *    engages (lockdowns are seen, writes delayed) and still no
 *    violation is observable;
 *  - under the negative-control mode (OoO commit of reordered loads
 *    on the baseline protocol) the checker DOES flag violations
 *    and/or the illegal outcome appears — proving the test and the
 *    checker have teeth.
 *  - the store-buffering litmus must exhibit the {0,0} outcome:
 *    we implement TSO, not SC.
 */

#include <gtest/gtest.h>

#include "system/system.hh"
#include "workload/litmus.hh"

namespace wb
{

namespace
{

constexpr int kIters = 1500;

SystemConfig
litmusConfig(CommitMode mode, std::uint64_t jitter_seed = 1)
{
    SystemConfig cfg;
    cfg.numCores = 4; // small mesh keeps latencies tight
    cfg.mesh.width = 2;
    cfg.mesh.height = 2;
    cfg.maxCycles = 30'000'000;
    // Adversarially unordered network stresses message races.
    cfg.network = NetworkKind::Ideal;
    cfg.ideal.numNodes = 4;
    cfg.ideal.baseLatency = 8;
    cfg.ideal.jitter = 12;
    cfg.ideal.seed = jitter_seed;
    cfg.setMode(mode);
    return cfg;
}

struct LitmusRun
{
    SimResults results;
    OutcomeCounts outcomes;
};

LitmusRun
runLitmus(LitmusKind kind, CommitMode mode,
          std::uint64_t seed = 1)
{
    Workload wl = makeLitmus(kind, kIters);
    System sys(litmusConfig(mode, seed), wl);
    LitmusRun run;
    run.results = sys.run();
    EXPECT_TRUE(run.results.completed)
        << litmusName(kind) << " " << commitModeName(mode)
        << " cycles=" << run.results.cycles
        << " deadlocked=" << run.results.deadlocked;
    run.outcomes = countOutcomes(
        [&sys](Addr a) { return sys.peekCoherent(a); }, kIters);
    return run;
}

} // namespace

class LitmusAllModes : public ::testing::TestWithParam<CommitMode>
{};

TEST_P(LitmusAllModes, Table1NeverIllegal)
{
    auto run = runLitmus(LitmusKind::Table1, GetParam());
    EXPECT_EQ(illegalOutcomes(LitmusKind::Table1, run.outcomes), 0)
        << commitModeName(GetParam());
    EXPECT_EQ(run.results.tsoViolations, 0u);
}

TEST_P(LitmusAllModes, Table3NeverIllegal)
{
    auto run = runLitmus(LitmusKind::Table3, GetParam());
    EXPECT_EQ(illegalOutcomes(LitmusKind::Table3, run.outcomes), 0);
    EXPECT_EQ(run.results.tsoViolations, 0u);
}

TEST_P(LitmusAllModes, CoRRNeverIllegal)
{
    auto run = runLitmus(LitmusKind::CoRR, GetParam());
    EXPECT_EQ(illegalOutcomes(LitmusKind::CoRR, run.outcomes), 0);
    EXPECT_EQ(run.results.tsoViolations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, LitmusAllModes,
    ::testing::Values(CommitMode::InOrder, CommitMode::OooSafe,
                      CommitMode::OooWB),
    [](const ::testing::TestParamInfo<CommitMode> &info) {
        switch (info.param) {
          case CommitMode::InOrder: return "InOrder";
          case CommitMode::OooSafe: return "OooSafe";
          case CommitMode::OooWB: return "OooWB";
          default: return "Other";
        }
    });

TEST_P(LitmusAllModes, LoadBufferNeverIllegal)
{
    // TSO never relaxes load->store: the {1,1} outcome of the LB
    // litmus must not occur in any mode (including OoO+WB, which
    // relaxes only load->load).
    auto run = runLitmus(LitmusKind::LoadBuffer, GetParam());
    EXPECT_EQ(illegalOutcomes(LitmusKind::LoadBuffer, run.outcomes),
              0)
        << commitModeName(GetParam());
    EXPECT_EQ(run.results.tsoViolations, 0u);
}

TEST_P(LitmusAllModes, IriwReadersAgreeOnWriteOrder)
{
    // Multi-copy atomicity: WritersBlock's tear-off copies must not
    // let two readers observe the independent writes in opposite
    // orders.
    auto run = runLitmus(LitmusKind::Iriw, GetParam());
    EXPECT_EQ(illegalOutcomes(LitmusKind::Iriw, run.outcomes), 0)
        << commitModeName(GetParam());
    EXPECT_EQ(run.results.tsoViolations, 0u);
}

TEST(Litmus, StoreBufferingOutcomeOccurs)
{
    // TSO allows {0,0}: both loads bypass the other core's store.
    // If we never observe it we are likely implementing something
    // stronger than TSO (or the store buffer is broken).
    auto run =
        runLitmus(LitmusKind::StoreBuffer, CommitMode::InOrder);
    const int both_old = run.outcomes[{0, 0}];
    EXPECT_GT(both_old, 0)
        << "store->load relaxation never observed";
    EXPECT_EQ(run.results.tsoViolations, 0u);
}

TEST(Litmus, FencedStoreBufferingForbidsBothOld)
{
    // With an mfence between each thread's store and load, the
    // {0,0} outcome becomes illegal — and must disappear, in every
    // mode (the fence must drain the SB before later loads issue).
    for (CommitMode mode :
         {CommitMode::InOrder, CommitMode::OooSafe,
          CommitMode::OooWB}) {
        auto run =
            runLitmus(LitmusKind::StoreBufferFenced, mode);
        EXPECT_EQ(illegalOutcomes(LitmusKind::StoreBufferFenced,
                                  run.outcomes),
                  0)
            << commitModeName(mode);
        EXPECT_EQ(run.results.tsoViolations, 0u);
    }
}

TEST(Litmus, WritersBlockEngagesOnTable1)
{
    // With OoO+WB commit, the reader commits reordered loads; the
    // writer's invalidations must hit lockdowns at least sometimes.
    std::uint64_t seen = 0;
    std::uint64_t wb_entries = 0;
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        auto run = runLitmus(LitmusKind::Table1, CommitMode::OooWB,
                             seed);
        seen += run.results.lockdownsSeen;
        wb_entries += run.results.wbEntries;
        EXPECT_EQ(illegalOutcomes(LitmusKind::Table1, run.outcomes), 0);
        EXPECT_EQ(run.results.tsoViolations, 0u);
    }
    EXPECT_GT(seen, 0u) << "no invalidation ever saw a lockdown; "
                           "the litmus is not racing";
    EXPECT_GT(wb_entries, 0u)
        << "directory never entered WritersBlock";
}

TEST(Litmus, NegativeControlViolatesTso)
{
    // OoO commit of reordered loads WITHOUT WritersBlock must be
    // caught: either the illegal architectural outcome appears or
    // the checker flags the reordering (both, usually).
    int illegal = 0;
    std::size_t violations = 0;
    for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
        Workload wl = makeLitmus(LitmusKind::Table1, kIters);
        SystemConfig cfg = litmusConfig(CommitMode::OooUnsafe, seed);
        cfg.core.commitMode = CommitMode::OooUnsafe;
        cfg.core.lockdown = false;
        System sys(cfg, wl);
        SimResults r = sys.run();
        EXPECT_TRUE(r.completed);
        illegal += illegalOutcomes(
            LitmusKind::Table1,
            countOutcomes([&sys](Addr a) { return sys.peekCoherent(a); },
                          kIters));
        violations += r.tsoViolations;
    }
    EXPECT_GT(illegal + int(violations), 0)
        << "negative control produced no violation: the litmus "
           "cannot distinguish safe from unsafe commit";
}

} // namespace wb

/**
 * @file
 * Workload-generator tests: determinism, parameter validation, and
 * functional sanity of every benchmark profile and litmus under the
 * sequentially-consistent reference interpreter.
 */

#include <gtest/gtest.h>

#include "isa/func_sim.hh"
#include "workload/benchmarks.hh"
#include "workload/litmus.hh"
#include "workload/synthetic.hh"

namespace wb
{

TEST(Workload, SyntheticDeterministicPerSeed)
{
    SyntheticParams p;
    p.iterations = 5;
    p.seed = 77;
    Workload a = makeSynthetic(p, 4);
    Workload b = makeSynthetic(p, 4);
    ASSERT_EQ(a.threads.size(), b.threads.size());
    for (std::size_t t = 0; t < a.threads.size(); ++t) {
        ASSERT_EQ(a.threads[t].size(), b.threads[t].size());
        for (std::size_t i = 0; i < a.threads[t].size(); ++i) {
            EXPECT_EQ(int(a.threads[t][i].op),
                      int(b.threads[t][i].op));
            EXPECT_EQ(a.threads[t][i].imm, b.threads[t][i].imm);
        }
    }
    // Different seed -> different program.
    p.seed = 78;
    Workload c = makeSynthetic(p, 4);
    bool differs = a.threads[0].size() != c.threads[0].size();
    for (std::size_t i = 0;
         !differs && i < a.threads[0].size(); ++i)
        differs = int(a.threads[0][i].op) !=
                  int(c.threads[0][i].op) ||
                  a.threads[0][i].imm != c.threads[0][i].imm;
    EXPECT_TRUE(differs);
}

TEST(Workload, ThreadsGetDistinctPrograms)
{
    SyntheticParams p;
    p.iterations = 5;
    p.seed = 5;
    Workload wl = makeSynthetic(p, 2);
    bool differs = wl.threads[0].size() != wl.threads[1].size();
    for (std::size_t i = 0;
         !differs && i < wl.threads[0].size(); ++i)
        differs =
            wl.threads[0][i].imm != wl.threads[1][i].imm ||
            int(wl.threads[0][i].op) != int(wl.threads[1][i].op);
    EXPECT_TRUE(differs);
}

TEST(Workload, RejectsNonPowerOfTwoRegions)
{
    SyntheticParams p;
    p.privateWords = 1000;
    EXPECT_THROW(makeSynthetic(p, 1), std::runtime_error);
    p.privateWords = 1024;
    p.sharedWords = 3000;
    EXPECT_THROW(makeSynthetic(p, 1), std::runtime_error);
}

TEST(Workload, BenchmarkTableComplete)
{
    EXPECT_EQ(benchmarkNames().size(),
              splashNames().size() + parsecNames().size());
    EXPECT_EQ(splashNames().size(), 14u);
    EXPECT_EQ(parsecNames().size(), 8u);
    EXPECT_THROW(benchmarkProfile("not-a-benchmark"),
                 std::runtime_error);
}

TEST(Workload, EveryBenchmarkRunsFunctionally)
{
    // Tiny scale: every profile must terminate under the SC
    // reference interpreter (valid programs, no stuck spins).
    for (const std::string &name : benchmarkNames()) {
        SyntheticParams p = benchmarkProfile(name, 0.05);
        p.iterations = 3;
        Workload wl = makeSynthetic(p, 4);
        FuncSim fs(wl, 99);
        EXPECT_TRUE(fs.run(20'000'000)) << name;
    }
}

TEST(Workload, ProfilesAreDifferentiated)
{
    SyntheticParams a = benchmarkProfile("blackscholes");
    SyntheticParams b = benchmarkProfile("streamcluster");
    EXPECT_LT(a.sharedRatio, b.sharedRatio);
    EXPECT_LT(a.hotRatio, b.hotRatio);
    SyntheticParams c = benchmarkProfile("canneal");
    EXPECT_GT(c.privateWords, a.privateWords);
    EXPECT_NE(a.seed, b.seed);
}

TEST(Workload, ScaleControlsIterations)
{
    SyntheticParams small = benchmarkProfile("fft", 0.1);
    SyntheticParams big = benchmarkProfile("fft", 1.0);
    EXPECT_LT(small.iterations, big.iterations);
}

class LitmusFunctional
    : public ::testing::TestWithParam<LitmusKind>
{};

TEST_P(LitmusFunctional, RunsUnderScReference)
{
    Workload wl = makeLitmus(GetParam(), 50);
    FuncSim fs(wl, 3);
    ASSERT_TRUE(fs.run(50'000'000)) << litmusName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, LitmusFunctional,
    ::testing::Values(LitmusKind::Table1, LitmusKind::Table3,
                      LitmusKind::StoreBuffer,
                      LitmusKind::StoreBufferFenced,
                      LitmusKind::CoRR, LitmusKind::LoadBuffer,
                      LitmusKind::Iriw),
    [](const ::testing::TestParamInfo<LitmusKind> &info) {
        switch (info.param) {
          case LitmusKind::Table1: return "Table1";
          case LitmusKind::Table3: return "Table3";
          case LitmusKind::StoreBuffer: return "SB";
          case LitmusKind::StoreBufferFenced: return "SBFence";
          case LitmusKind::CoRR: return "CoRR";
          case LitmusKind::LoadBuffer: return "LB";
          case LitmusKind::Iriw: return "IRIW";
        }
        return "Other";
    });

// The command-line names wbsim and wbtrace accept: one per kind,
// and nothing else (litmusName()'s report names included).
TEST(Workload, ParseLitmusNameCoversEveryKind)
{
    const std::pair<const char *, LitmusKind> names[] = {
        {"table1", LitmusKind::Table1},
        {"table3", LitmusKind::Table3},
        {"sb", LitmusKind::StoreBuffer},
        {"sb-fence", LitmusKind::StoreBufferFenced},
        {"corr", LitmusKind::CoRR},
        {"lb", LitmusKind::LoadBuffer},
        {"iriw", LitmusKind::Iriw},
    };
    for (const auto &[name, want] : names) {
        LitmusKind got{};
        ASSERT_TRUE(parseLitmusName(name, got)) << name;
        EXPECT_EQ(got, want) << name;
    }
    LitmusKind k{};
    EXPECT_FALSE(parseLitmusName("fft", k));
    EXPECT_FALSE(parseLitmusName("store-buffer", k));
    EXPECT_FALSE(parseLitmusName("", k));
}

TEST(Workload, Table1UnderScNeverIllegalAndOrdered)
{
    // Under SC (the reference), the mp litmus can only produce the
    // three legal pairs; additionally ld y==new implies following
    // iterations see x==new too (per-iteration check via memory).
    const int iters = 50;
    Workload wl = makeLitmus(LitmusKind::Table1, iters);
    FuncSim fs(wl, 11);
    ASSERT_TRUE(fs.run(50'000'000));
    OutcomeCounts oc = countOutcomes(
        [&fs](Addr a) { return fs.readMem(a); }, iters);
    EXPECT_EQ(illegalOutcomes(LitmusKind::Table1, oc), 0);
}

} // namespace wb

/**
 * @file
 * Configuration conformance: the presets must match Table 6 of the
 * paper exactly, and SystemConfig::setMode must keep the core and
 * protocol flavours consistent.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "system/system.hh"
#include "workload/litmus.hh"

namespace wb
{

TEST(Config, Table6CoreClasses)
{
    const CoreConfig slm = makeCoreConfig(CoreClass::SLM);
    EXPECT_EQ(slm.fetchWidth, 4);
    EXPECT_EQ(slm.commitWidth, 4);
    EXPECT_EQ(slm.iqSize, 16);
    EXPECT_EQ(slm.robSize, 32);
    EXPECT_EQ(slm.lqSize, 10);
    EXPECT_EQ(slm.sqSize, 16);
    EXPECT_EQ(slm.sbSize, 16);
    EXPECT_EQ(slm.ldtSize, 32);

    const CoreConfig nhm = makeCoreConfig(CoreClass::NHM);
    EXPECT_EQ(nhm.iqSize, 32);
    EXPECT_EQ(nhm.robSize, 128);
    EXPECT_EQ(nhm.lqSize, 48);
    EXPECT_EQ(nhm.sqSize, 36);
    EXPECT_EQ(nhm.sbSize, 36);

    const CoreConfig hsw = makeCoreConfig(CoreClass::HSW);
    EXPECT_EQ(hsw.iqSize, 60);
    EXPECT_EQ(hsw.robSize, 192);
    EXPECT_EQ(hsw.lqSize, 72);
    EXPECT_EQ(hsw.sqSize, 42);
    EXPECT_EQ(hsw.sbSize, 42);
}

TEST(Config, Table6MemorySystem)
{
    const MemSystemConfig mem;
    EXPECT_EQ(mem.l1Size, 32u * 1024);
    EXPECT_EQ(mem.l1Assoc, 8u);
    EXPECT_EQ(mem.l1HitLatency, 4u);
    EXPECT_EQ(mem.l2Size, 128u * 1024);
    EXPECT_EQ(mem.l2Assoc, 8u);
    EXPECT_EQ(mem.l2HitLatency, 12u);
    EXPECT_EQ(mem.llcBankSize, 1024u * 1024);
    EXPECT_EQ(mem.llcAssoc, 8u);
    EXPECT_EQ(mem.llcHitLatency, 35u);
    EXPECT_EQ(mem.memLatency, 160u);
    EXPECT_TRUE(mem.silentSharedEvictions);
}

TEST(Config, Table6Mesh)
{
    const MeshConfig mesh;
    EXPECT_EQ(mesh.width * mesh.height, 16);
    EXPECT_EQ(mesh.hopLatency, 6u);
    EXPECT_EQ(unsigned(ctrlFlits), 1u);
    EXPECT_EQ(unsigned(dataFlits), 5u);
}

TEST(Config, SetModeCouplesCoreAndProtocol)
{
    SystemConfig cfg;
    cfg.setMode(CommitMode::OooWB);
    EXPECT_TRUE(cfg.core.lockdown);
    cfg.setMode(CommitMode::OooSafe);
    EXPECT_FALSE(cfg.core.lockdown);
    cfg.setMode(CommitMode::InOrder);
    EXPECT_FALSE(cfg.core.lockdown);
    // The negative control needs no overrides after setMode.
    cfg.setMode(CommitMode::OooWB);
    cfg.setMode(CommitMode::OooUnsafe);
    EXPECT_EQ(cfg.core.commitMode, CommitMode::OooUnsafe);
    EXPECT_FALSE(cfg.core.lockdown);
}

TEST(Config, ModeAndClassNames)
{
    EXPECT_STREQ(commitModeName(CommitMode::InOrder), "in-order");
    EXPECT_STREQ(commitModeName(CommitMode::OooSafe), "ooo-safe");
    EXPECT_STREQ(commitModeName(CommitMode::OooWB),
                 "ooo-writersblock");
    EXPECT_STREQ(commitModeName(CommitMode::OooUnsafe),
                 "ooo-unsafe");
    EXPECT_STREQ(coreClassName(CoreClass::SLM), "SLM");
    EXPECT_STREQ(coreClassName(CoreClass::NHM), "NHM");
    EXPECT_STREQ(coreClassName(CoreClass::HSW), "HSW");

    // The parsers invert the names (and take the short aliases).
    for (CommitMode m : {CommitMode::InOrder, CommitMode::OooSafe,
                         CommitMode::OooWB, CommitMode::OooUnsafe}) {
        CommitMode out = CommitMode::InOrder;
        EXPECT_TRUE(parseCommitMode(commitModeName(m), out));
        EXPECT_EQ(out, m);
    }
    CommitMode mode{};
    EXPECT_TRUE(parseCommitMode("ooo-wb", mode));
    EXPECT_EQ(mode, CommitMode::OooWB);
    EXPECT_FALSE(parseCommitMode("ooo", mode));
    for (CoreClass c : {CoreClass::SLM, CoreClass::NHM, CoreClass::HSW}) {
        CoreClass out = CoreClass::SLM;
        EXPECT_TRUE(parseCoreClass(coreClassName(c), out));
        EXPECT_EQ(out, c);
    }
    CoreClass cls{};
    EXPECT_TRUE(parseCoreClass("hsw", cls));
    EXPECT_EQ(cls, CoreClass::HSW);
    EXPECT_FALSE(parseCoreClass("Atom", cls));
}

TEST(Config, MeshFitIsTheSmallestNearSquare)
{
    MeshConfig m;
    for (const auto &[nodes, w, h] :
         {std::tuple{1, 1, 1}, {4, 2, 2}, {5, 3, 2}, {16, 4, 4},
          {17, 5, 4}, {64, 8, 8}}) {
        m.fit(nodes);
        EXPECT_EQ(m.width, w) << nodes;
        EXPECT_EQ(m.height, h) << nodes;
        EXPECT_GE(m.width * m.height, nodes);
    }
}

// The directory names sharers with one bit per core, so a machine
// wider than that set cannot be built (wbsim, wbtrace and campaign
// specs reject it earlier, as usage errors).
TEST(Config, CoreCountIsBoundedByTheSharerSet)
{
    const Workload wl = makeLitmus(LitmusKind::Table1, 10);
    SystemConfig cfg;
    cfg.numCores = maxCores + 1;
    cfg.mesh.fit(cfg.numCores);
    EXPECT_THROW(System sys(cfg, wl), std::runtime_error);
}

} // namespace wb

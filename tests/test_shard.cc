/**
 * @file
 * Cross-shard determinism (docs/PARALLEL.md).
 *
 * The sharded engine's contract is absolute: for any workload and
 * any shard count, the simulation — results, every raw counter, the
 * JSON report — is byte-identical to the single-shard run. These
 * tests sweep every litmus plus three synthetic profiles across
 * shards {1, 2, 4} and diff the full counter-bearing JSON reports.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "system/report.hh"
#include "system/system.hh"
#include "workload/benchmarks.hh"
#include "workload/litmus.hh"

namespace wb
{

namespace
{

/** Full-fidelity witness of one run: the counter-bearing JSON
 *  report plus the executed-event count (which the report omits). */
struct RunWitness
{
    std::string json;
    std::uint64_t events = 0;
    bool completed = false;
};

RunWitness
runSharded(const Workload &wl, SystemConfig cfg, int shards)
{
    cfg.shards = shards;
    System sys(cfg, wl);
    const SimResults r = sys.run();
    RunWitness w;
    std::ostringstream os;
    writeJsonReport(os, wl.name, cfg, r, &sys.stats());
    w.json = os.str();
    w.events = sys.eventsExecuted();
    w.completed = r.completed;
    return w;
}

/** Diff a workload across shard counts 1, 2, 4 on @p cfg. */
void
expectShardInvariant(const Workload &wl, const SystemConfig &cfg,
                     const std::string &label)
{
    const RunWitness base = runSharded(wl, cfg, 1);
    ASSERT_TRUE(base.completed) << label;
    for (int shards : {2, 4}) {
        const RunWitness w = runSharded(wl, cfg, shards);
        EXPECT_EQ(base.json, w.json)
            << label << ": report diverged at shards=" << shards;
        EXPECT_EQ(base.events, w.events)
            << label << ": event count diverged at shards="
            << shards;
    }
}

SystemConfig
litmusConfig(NetworkKind nk)
{
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.mesh.width = 2;
    cfg.mesh.height = 2;
    cfg.network = nk;
    cfg.ideal.numNodes = 4;
    cfg.ideal.baseLatency = 8;
    cfg.ideal.jitter = 12;
    cfg.maxCycles = 30'000'000;
    cfg.setMode(CommitMode::OooWB);
    return cfg;
}

} // namespace

TEST(ShardDeterminism, EveryLitmusEveryNetwork)
{
    constexpr LitmusKind kinds[] = {
        LitmusKind::Table1,     LitmusKind::Table3,
        LitmusKind::StoreBuffer, LitmusKind::StoreBufferFenced,
        LitmusKind::LoadBuffer, LitmusKind::CoRR,
        LitmusKind::Iriw,
    };
    for (NetworkKind nk : {NetworkKind::Mesh, NetworkKind::Ideal})
        for (LitmusKind k : kinds) {
            const Workload wl = makeLitmus(k, 400);
            expectShardInvariant(
                wl, litmusConfig(nk),
                std::string(litmusName(k)) +
                    (nk == NetworkKind::Mesh ? "/mesh" : "/ideal"));
        }
}

TEST(ShardDeterminism, SyntheticProfiles)
{
    // Three contrasting sharing patterns; 16 cores so shards 2 and
    // 4 both split the mesh into multi-tile partitions.
    for (const char *name : {"fft", "ocean_ncp", "radix"}) {
        SyntheticParams p = benchmarkProfile(name, 0.05);
        const Workload wl = makeSynthetic(p, 16);
        SystemConfig cfg;
        cfg.numCores = 16;
        cfg.core = makeCoreConfig(CoreClass::SLM);
        cfg.maxCycles = 100'000'000;
        cfg.setMode(CommitMode::OooWB);
        expectShardInvariant(wl, cfg, name);
    }
}

TEST(ShardDeterminism, CheckerSeesIdenticalHistory)
{
    // With the checker on, the per-tile taps replay into one global
    // TsoChecker at each barrier; a cross-shard ordering bug shows
    // up as a phantom violation (or a masked real one). IRIW is the
    // sharpest four-party ordering probe we have.
    const Workload wl = makeLitmus(LitmusKind::Iriw, 600);
    for (NetworkKind nk :
         {NetworkKind::Mesh, NetworkKind::Ideal}) {
        SystemConfig cfg = litmusConfig(nk);
        cfg.checker = true;
        expectShardInvariant(wl, cfg, "iriw+checker");
    }
}

} // namespace wb

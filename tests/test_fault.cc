/**
 * @file
 * Unit tests for the fault-injection layer: spec parsing round-trips,
 * injector determinism, drop budgeting, and the network in-flight
 * ledger on clean runs.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/fault.hh"
#include "sim/rng.hh"
#include "system/system.hh"
#include "workload/litmus.hh"

namespace wb
{

TEST(FaultSpec, ParsesFullGrammar)
{
    FaultConfig cfg;
    std::string err;
    ASSERT_TRUE(parseFaultSpec(
        "seed=42,delay=0.01:200,dup=0.005:4,reorder=0.02:16:64,"
        "drop=0.001:3",
        cfg, err))
        << err;
    EXPECT_EQ(cfg.seed, 42u);
    EXPECT_DOUBLE_EQ(cfg.delayProb, 0.01);
    EXPECT_EQ(cfg.delayMax, 200u);
    EXPECT_DOUBLE_EQ(cfg.dupProb, 0.005);
    EXPECT_EQ(cfg.dupOffsetMax, 4u);
    EXPECT_DOUBLE_EQ(cfg.reorderProb, 0.02);
    EXPECT_EQ(cfg.reorderBurst, 16u);
    EXPECT_EQ(cfg.reorderMax, 64u);
    EXPECT_DOUBLE_EQ(cfg.dropProb, 0.001);
    EXPECT_EQ(cfg.dropMax, 3u);
    EXPECT_TRUE(cfg.enabled());
}

TEST(FaultSpec, CanonicalSpecRoundTrips)
{
    FaultConfig cfg;
    std::string err;
    ASSERT_TRUE(parseFaultSpec("seed=7,delay=0.25,drop=0.5:1", cfg,
                               err))
        << err;
    const std::string canon = cfg.spec();
    FaultConfig again;
    ASSERT_TRUE(parseFaultSpec(canon, again, err)) << canon;
    EXPECT_EQ(again.spec(), canon);
    EXPECT_EQ(again.seed, cfg.seed);
    EXPECT_DOUBLE_EQ(again.delayProb, cfg.delayProb);
    EXPECT_DOUBLE_EQ(again.dropProb, cfg.dropProb);
    EXPECT_EQ(again.dropMax, cfg.dropMax);
}

TEST(FaultSpec, RejectsBadClauses)
{
    FaultConfig cfg;
    std::string err;
    EXPECT_FALSE(parseFaultSpec("bogus=1", cfg, err));
    EXPECT_NE(err.find("bogus"), std::string::npos) << err;
    EXPECT_FALSE(parseFaultSpec("delay=2.0", cfg, err));
    EXPECT_FALSE(parseFaultSpec("drop=-0.1", cfg, err));
    EXPECT_FALSE(parseFaultSpec("seed=", cfg, err));
    EXPECT_FALSE(parseFaultSpec("delay", cfg, err));
}

TEST(FaultSpec, ValidateRejectsBadProgrammaticConfigs)
{
    FaultConfig cfg;
    EXPECT_TRUE(cfg.validate().empty()) << cfg.validate();

    // Probabilities outside [0,1] — reachable only when the config
    // is built programmatically, which is exactly what validate()
    // guards (System's ctor fatals on a non-empty result).
    cfg.dropProb = 1.5;
    EXPECT_NE(cfg.validate().find("drop"), std::string::npos);
    cfg.dropProb = 0.0;
    cfg.delayProb = -0.25;
    EXPECT_NE(cfg.validate().find("delay"), std::string::npos);
    cfg.delayProb = 0.0;

    // Zero bounds on an armed class would feed Rng::below(0).
    cfg.delayProb = 0.5;
    cfg.delayMax = 0;
    EXPECT_FALSE(cfg.validate().empty());
    cfg = FaultConfig{};
    cfg.dupProb = 0.5;
    cfg.dupOffsetMax = 0;
    EXPECT_FALSE(cfg.validate().empty());
    cfg = FaultConfig{};
    cfg.reorderProb = 0.5;
    cfg.reorderBurst = 0;
    EXPECT_FALSE(cfg.validate().empty());
    cfg = FaultConfig{};
    cfg.dropProb = 0.5;
    cfg.dropMax = 0;
    EXPECT_FALSE(cfg.validate().empty());

    // A zero bound on a *disarmed* class is harmless.
    cfg = FaultConfig{};
    cfg.delayMax = 0;
    EXPECT_TRUE(cfg.validate().empty()) << cfg.validate();
}

TEST(FaultSpec, SpecParseRoundTripFuzz)
{
    // Deterministic fuzz of the spec() <-> parseFaultSpec round
    // trip: any valid config must serialise to a spec that parses
    // back to the same config, fixed point after one round.
    Rng rng(0xF00DF00Du);
    auto prob = [&]() {
        // Favour round-ish values so "%g" formatting is exercised
        // across short and long decimal forms.
        return double(rng.below(10'000)) / 10'000.0;
    };
    for (int i = 0; i < 500; ++i) {
        FaultConfig cfg;
        cfg.seed = rng.below(1'000'000) + 1;
        if (rng.below(2)) {
            cfg.delayProb = prob();
            cfg.delayMax = Tick(rng.below(500)) + 1;
        }
        if (rng.below(2)) {
            cfg.dupProb = prob();
            cfg.dupOffsetMax = Tick(rng.below(64)) + 1;
        }
        if (rng.below(2)) {
            cfg.reorderProb = prob();
            cfg.reorderBurst = unsigned(rng.below(32)) + 1;
            cfg.reorderMax = Tick(rng.below(128)) + 1;
        }
        if (rng.below(2)) {
            cfg.dropProb = prob();
            cfg.dropMax = unsigned(rng.below(16)) + 1;
        }
        ASSERT_TRUE(cfg.validate().empty())
            << i << ": " << cfg.validate();

        const std::string canon = cfg.spec();
        FaultConfig again;
        std::string err;
        ASSERT_TRUE(parseFaultSpec(canon, again, err))
            << i << ": " << canon << ": " << err;
        EXPECT_EQ(again.spec(), canon) << i;
        EXPECT_EQ(again.seed, cfg.seed) << i;
        EXPECT_DOUBLE_EQ(again.delayProb, cfg.delayProb) << i;
        EXPECT_DOUBLE_EQ(again.dupProb, cfg.dupProb) << i;
        EXPECT_DOUBLE_EQ(again.reorderProb, cfg.reorderProb) << i;
        EXPECT_DOUBLE_EQ(again.dropProb, cfg.dropProb) << i;
        if (cfg.delayProb > 0.0) {
            EXPECT_EQ(again.delayMax, cfg.delayMax) << i;
        }
        if (cfg.dupProb > 0.0) {
            EXPECT_EQ(again.dupOffsetMax, cfg.dupOffsetMax) << i;
        }
        if (cfg.reorderProb > 0.0) {
            EXPECT_EQ(again.reorderBurst, cfg.reorderBurst) << i;
            EXPECT_EQ(again.reorderMax, cfg.reorderMax) << i;
        }
        if (cfg.dropProb > 0.0) {
            EXPECT_EQ(again.dropMax, cfg.dropMax) << i;
        }
    }
}

TEST(FaultSpec, DefaultConfigIsDisabled)
{
    FaultConfig cfg;
    EXPECT_FALSE(cfg.enabled());
    // Seed alone arms nothing.
    std::string err;
    ASSERT_TRUE(parseFaultSpec("seed=9", cfg, err));
    EXPECT_FALSE(cfg.enabled());
}

TEST(FaultInjector, DeterministicDecisionStream)
{
    FaultConfig cfg;
    std::string err;
    ASSERT_TRUE(parseFaultSpec(
        "seed=5,delay=0.1:50,dup=0.05,reorder=0.05:4:16,drop=0.02:8",
        cfg, err));
    FaultInjector a(cfg);
    FaultInjector b(cfg);
    for (int i = 0; i < 10'000; ++i) {
        const FaultDecision da = a.next();
        const FaultDecision db = b.next();
        ASSERT_EQ(da.drop, db.drop) << "message " << i;
        ASSERT_EQ(da.duplicate, db.duplicate) << "message " << i;
        ASSERT_EQ(da.extraDelay, db.extraDelay) << "message " << i;
        ASSERT_EQ(da.dupOffset, db.dupOffset) << "message " << i;
    }
    EXPECT_EQ(a.dropped(), b.dropped());
    EXPECT_EQ(a.duplicated(), b.duplicated());
    EXPECT_EQ(a.delayed(), b.delayed());
    EXPECT_EQ(a.reordered(), b.reordered());
}

TEST(FaultInjector, SeedChangesTheStream)
{
    FaultConfig cfg;
    std::string err;
    ASSERT_TRUE(
        parseFaultSpec("seed=1,delay=0.1:50,dup=0.05", cfg, err));
    FaultConfig cfg2 = cfg;
    cfg2.seed = 2;
    FaultInjector a(cfg);
    FaultInjector b(cfg2);
    bool differs = false;
    for (int i = 0; i < 2'000 && !differs; ++i) {
        const FaultDecision da = a.next();
        const FaultDecision db = b.next();
        differs = da.duplicate != db.duplicate ||
                  da.extraDelay != db.extraDelay;
    }
    EXPECT_TRUE(differs);
}

TEST(FaultInjector, DropBudgetIsRespected)
{
    FaultConfig cfg;
    std::string err;
    ASSERT_TRUE(parseFaultSpec("seed=3,drop=1.0:5", cfg, err));
    FaultInjector fi(cfg);
    unsigned drops = 0;
    for (int i = 0; i < 100; ++i)
        drops += fi.next().drop ? 1u : 0u;
    EXPECT_EQ(drops, 5u);
    EXPECT_EQ(fi.dropped(), 5u);
}

TEST(NetworkLedger, CleanRunDeliversEverything)
{
    // Fault-free litmus: every injected message must be matched by a
    // delivery, leaving the ledger empty at end of run.
    Workload wl = makeLitmus(LitmusKind::Table1, 100);
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.mesh.width = 2;
    cfg.mesh.height = 2;
    cfg.setMode(CommitMode::OooWB);
    System sys(cfg, wl);
    SimResults r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_FALSE(r.deadlocked) << r.deadlockReason;
    EXPECT_GT(r.messages, 0u);
    EXPECT_EQ(r.leakedMessages, 0u);
    EXPECT_EQ(sys.network().inFlight(), 0u);
    EXPECT_TRUE(sys.network().undelivered().empty());
    std::string why;
    EXPECT_TRUE(sys.cleanTeardown(&why)) << why;
}

TEST(NetworkLedger, DroppedMessageStaysOnLedger)
{
    // Drop exactly one message: whatever else happens, the ledger
    // must still hold the dropped entry so the leak check can name
    // it, and the run must end with a deadlock verdict, not silence.
    Workload wl = makeLitmus(LitmusKind::Table1, 200);
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.mesh.width = 2;
    cfg.mesh.height = 2;
    cfg.setMode(CommitMode::OooWB);
    std::string err;
    ASSERT_TRUE(
        parseFaultSpec("seed=2,drop=1.0:1", cfg.faults, err));
    // Small thresholds keep the wedge diagnosis fast.
    cfg.watchdogCycles = 30'000;
    cfg.txnWarnCycles = 5'000;
    cfg.txnDeadlockCycles = 15'000;
    cfg.watchdogPollCycles = 256;
    cfg.teardownDrainCycles = 20'000;
    cfg.maxCycles = 2'000'000;
    System sys(cfg, wl);
    SimResults r = sys.run();
    EXPECT_TRUE(r.deadlocked);
    EXPECT_FALSE(r.deadlockReason.empty());
    EXPECT_EQ(r.faultsDropped, 1u);
    const auto leaked = sys.network().undelivered();
    ASSERT_FALSE(leaked.empty());
    bool found_drop = false;
    for (const auto &m : leaked)
        found_drop |= m.dropped;
    EXPECT_TRUE(found_drop);
}

} // namespace wb

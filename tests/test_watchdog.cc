/**
 * @file
 * Hang-detection and crash-report tests: a wedged configuration must
 * end in `deadlocked = true` with the stuck component named in both
 * dumpState() and the structured crash report, and runClassified()
 * must map every abnormal outcome onto the exit-code taxonomy.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "system/crash_report.hh"
#include "system/system.hh"
#include "workload/litmus.hh"
#include "workload/synthetic.hh"

namespace wb
{

namespace
{

/** 4-core litmus config with fast watchdog thresholds and the given
 *  fault spec (empty = fault-free). */
SystemConfig
wedgeConfig(const std::string &fault_spec)
{
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.mesh.width = 2;
    cfg.mesh.height = 2;
    cfg.setMode(CommitMode::OooWB);
    cfg.watchdogCycles = 40'000;
    cfg.txnWarnCycles = 5'000;
    cfg.txnDeadlockCycles = 15'000;
    cfg.watchdogPollCycles = 256;
    cfg.teardownDrainCycles = 20'000;
    cfg.maxCycles = 2'000'000;
    if (!fault_spec.empty()) {
        std::string err;
        EXPECT_TRUE(parseFaultSpec(fault_spec, cfg.faults, err))
            << err;
    }
    return cfg;
}

} // namespace

TEST(Watchdog, WedgedRunGetsDeadlockVerdictAndNamesTheMshr)
{
    // Dropping the very first coherence message wedges one L1 MSHR
    // forever while the other cores keep going: only the
    // per-transaction watchdog can diagnose this.
    Workload wl = makeLitmus(LitmusKind::Table1, 300);
    System sys(wedgeConfig("seed=1,drop=1.0:1"), wl);
    SimResults r = sys.run();
    ASSERT_TRUE(r.deadlocked);
    EXPECT_NE(r.deadlockReason.find("transaction-timeout"),
              std::string::npos)
        << r.deadlockReason;

    // The stuck transaction is visible and aged.
    Tick worst = 0;
    for (int i = 0; i < sys.numCores(); ++i)
        worst = std::max(
            worst, sys.l1(i).oldestTransactionAge(sys.cycle()));
    EXPECT_GE(worst, 15'000u);

    // dumpState names the stuck MSHR with its age.
    std::ostringstream dump;
    sys.dumpState(dump);
    EXPECT_NE(dump.str().find("mshr"), std::string::npos);
    EXPECT_NE(dump.str().find("age="), std::string::npos);
}

TEST(Watchdog, CrashReportNamesStuckTransactionAndDroppedMsg)
{
    Workload wl = makeLitmus(LitmusKind::Table1, 300);
    System sys(wedgeConfig("seed=1,drop=1.0:1"), wl);
    const ClassifiedRun cr = runClassified(sys);
    EXPECT_EQ(cr.outcome, RunOutcome::Deadlock);
    EXPECT_EQ(cr.exitCode(), 3);

    std::ostringstream os;
    writeCrashReport(os, sys, cr.verdict, cr.detail);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"schema\":\"wbsim-crash-1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"verdict\":\"deadlock\""),
              std::string::npos);
    // Fault campaign provenance for replay.
    EXPECT_NE(json.find("\"spec\":\"seed=1,drop=1:1\""),
              std::string::npos)
        << json.substr(0, 400);
    // At least one MSHR with a non-trivial age and the dropped
    // message must be in the report.
    EXPECT_NE(json.find("\"mshrs\":[{"), std::string::npos);
    EXPECT_NE(json.find("\"dropped\":true"), std::string::npos);

    // Byte-identical replay: a fresh system with the same seed and
    // spec produces the same crash report.
    Workload wl2 = makeLitmus(LitmusKind::Table1, 300);
    System sys2(wedgeConfig("seed=1,drop=1.0:1"), wl2);
    const ClassifiedRun cr2 = runClassified(sys2);
    std::ostringstream os2;
    writeCrashReport(os2, sys2, cr2.verdict, cr2.detail);
    EXPECT_EQ(json, os2.str());
}

TEST(Watchdog, CleanRunClassifiesOk)
{
    Workload wl = makeLitmus(LitmusKind::Table1, 200);
    System sys(wedgeConfig(""), wl);
    const ClassifiedRun cr = runClassified(sys);
    EXPECT_EQ(cr.outcome, RunOutcome::Ok);
    EXPECT_EQ(cr.exitCode(), 0);
    EXPECT_EQ(cr.verdict, "ok");
    EXPECT_TRUE(cr.results.completed);
}

TEST(Watchdog, TsoViolationClassifiesExitTwo)
{
    // The unsafe mode on a jittered network reorders load-load pairs
    // observably: the checker must flag it and classification must
    // say exit 2.
    Workload wl = makeLitmus(LitmusKind::Table1, 1500);
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.network = NetworkKind::Ideal;
    cfg.ideal.jitter = 10;
    cfg.setMode(CommitMode::OooUnsafe);
    cfg.core.lockdown = false;
    System sys(cfg, wl);
    const ClassifiedRun cr = runClassified(sys);
    EXPECT_EQ(cr.outcome, RunOutcome::TsoViolation);
    EXPECT_EQ(cr.exitCode(), 2);
    EXPECT_FALSE(cr.detail.empty());
}

TEST(Watchdog, PanicClassifiesExitFour)
{
    // Heavy duplication: the protocol is not idempotent by design,
    // so a duplicated response trips a converted invariant check —
    // which must surface as a classified panic, never an abort().
    SyntheticParams p;
    p.iterations = 40;
    p.privateWords = 1024;
    p.sharedWords = 128;
    p.sharedRatio = 0.4;
    p.storeRatio = 0.35;
    p.seed = 13;
    Workload wl = makeSynthetic(p, 4);
    SystemConfig cfg = wedgeConfig("seed=4,dup=0.2");
    cfg.network = NetworkKind::Ideal;
    cfg.ideal.jitter = 8;
    const ClassifiedRun cr = [&] {
        System sys(cfg, wl);
        return runClassified(sys);
    }();
    // A dup-heavy campaign must end classified — normally a panic
    // (exit 4); absorbing every duplicate cleanly is also legal.
    EXPECT_TRUE(cr.outcome == RunOutcome::Panic ||
                cr.outcome == RunOutcome::Ok)
        << cr.verdict << ": " << cr.detail;
    if (cr.outcome == RunOutcome::Panic) {
        EXPECT_EQ(cr.exitCode(), 4);
        EXPECT_NE(cr.detail.find("panic"), std::string::npos);
    }
}

TEST(Watchdog, GlobalCommitWatchdogStillFires)
{
    // All four cores spin on a lock nobody releases... cannot be
    // built from litmus; instead drop everything so no core can make
    // its first commit past the fetch window — the global watchdog
    // path must still produce a verdict when every core is stuck.
    Workload wl = makeLitmus(LitmusKind::Table1, 300);
    SystemConfig cfg = wedgeConfig("seed=6,drop=1.0:1000000");
    // Make the per-transaction watchdog slower than the global one
    // so the legacy path wins the race.
    cfg.txnDeadlockCycles = 100'000;
    cfg.txnWarnCycles = 90'000;
    cfg.watchdogCycles = 10'000;
    System sys(cfg, wl);
    SimResults r = sys.run();
    ASSERT_TRUE(r.deadlocked);
    EXPECT_EQ(r.deadlockReason, "commit-watchdog");
}

} // namespace wb

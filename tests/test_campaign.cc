/**
 * @file
 * Campaign subsystem tests: spec expansion and manifest parsing,
 * seed derivation from the spec (not from scheduling), aggregator
 * reduction, crash isolation (a faulted job exiting with the
 * deadlock taxonomy does not abort the campaign), bounded retry of
 * infrastructure failures, and the headline determinism guarantee —
 * -j1 and -j8 campaigns emit byte-identical aggregate JSON and CSV.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

#include "campaign/campaign_aggregator.hh"
#include "campaign/campaign_runner.hh"
#include "campaign/campaign_spec.hh"
#include "campaign/fault_invariants.hh"
#include "snapshot/system_state.hh"
#include "workload/benchmarks.hh"
#include "workload/synthetic.hh"

using namespace wb;

namespace
{

/** A small, fast campaign spec over real synthetic workloads. */
CampaignSpec
tinySpec()
{
    CampaignSpec spec;
    spec.name = "tiny";
    spec.workloads = {"tiny"};
    spec.modes = {CommitMode::InOrder, CommitMode::OooWB};
    spec.mixes = {{"clean", ""}, {"delay", "delay=0.05:60"}};
    spec.seeds = 2;
    spec.baseSeed = 42;
    spec.machine.numCores = 2;
    spec.machine.network = NetworkKind::Ideal;
    spec.machine.ideal.jitter = 4;
    spec.machine.maxCycles = 2'000'000;
    spec.workloadFactory = [](const JobSpec &job,
                              const CampaignSpec &s) {
        SyntheticParams p;
        p.name = "tiny";
        p.iterations = 6;
        p.bodyOps = 12;
        p.privateWords = 64;
        p.sharedWords = 64;
        p.memRatio = 0.4;
        p.storeRatio = 0.3;
        p.sharedRatio = 0.3;
        p.seed = job.seed;
        return makeSynthetic(p, s.machine.numCores);
    };
    return spec;
}

/** The fault campaign's watchdog counts: a lost message ends its job
 *  in a deadlock verdict within tens of thousands of cycles. */
void
fastWatchdogs(SystemConfig &m)
{
    m.watchdogCycles = 40'000;
    m.txnWarnCycles = 6'000;
    m.txnDeadlockCycles = 20'000;
    m.watchdogPollCycles = 256;
    m.teardownDrainCycles = 25'000;
}

CampaignResult
runSpec(const CampaignSpec &spec, int jobs)
{
    CampaignRunner::Options opts;
    opts.jobs = jobs;
    opts.progress = false;
    CampaignRunner runner(spec, opts);
    return runner.run();
}

} // namespace

TEST(CampaignSpec, ExpansionIsTheOrderedCrossProduct)
{
    CampaignSpec spec = tinySpec();
    const auto jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 2u * 2u * 2u); // modes x mixes x seeds
    ASSERT_EQ(jobs.size(), spec.jobCount());

    // Indexes are consecutive and the nesting order is
    // workload > mode > class > variant > mix > seed.
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(jobs[i].index, i);
    EXPECT_EQ(jobs[0].mode, CommitMode::InOrder);
    EXPECT_EQ(jobs[0].mixName, "clean");
    EXPECT_EQ(jobs[0].seedIndex, 0);
    EXPECT_EQ(jobs[1].seedIndex, 1);
    EXPECT_EQ(jobs[2].mixName, "delay");
    EXPECT_EQ(jobs[4].mode, CommitMode::OooWB);

    // Expansion is a pure function of the spec.
    const auto again = spec.expand();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(jobs[i].seed, again[i].seed);
        EXPECT_EQ(jobs[i].faultSeed, again[i].faultSeed);
    }
}

TEST(CampaignSpec, PaperCampaignIsThePaperMachine)
{
    const CampaignSpec spec = paperCampaign(
        {CommitMode::OooWB}, {CoreClass::SLM, CoreClass::HSW}, 0.1);
    const auto jobs = spec.expand();
    ASSERT_EQ(jobs.size(), benchmarkNames().size() * 2);
    // Profile-major, then class: the order of wbperf's fig cells.
    EXPECT_EQ(jobs[0].workload, benchmarkNames()[0]);
    EXPECT_EQ(jobs[0].cls, CoreClass::SLM);
    EXPECT_EQ(jobs[1].workload, benchmarkNames()[0]);
    EXPECT_EQ(jobs[1].cls, CoreClass::HSW);

    const SystemConfig cfg = spec.configFor(jobs[1]);
    EXPECT_EQ(cfg.numCores, 16);
    EXPECT_EQ(cfg.network, NetworkKind::Mesh);
    EXPECT_EQ(cfg.mesh.width, 4);
    EXPECT_EQ(cfg.mesh.height, 4);
    EXPECT_FALSE(cfg.checker);
    EXPECT_EQ(cfg.maxCycles, Tick(400'000'000));
    EXPECT_EQ(cfg.core.robSize, makeCoreConfig(CoreClass::HSW).robSize);
    EXPECT_EQ(cfg.core.commitMode, CommitMode::OooWB);
    EXPECT_TRUE(cfg.core.lockdown);
    EXPECT_FALSE(cfg.faults.enabled());

    // Each profile keeps its own seed: the same program as
    // makeBenchmark builds.
    EXPECT_EQ(workloadFingerprint(spec.workloadFor(jobs[1])),
              workloadFingerprint(
                  makeBenchmark(jobs[1].workload, 16, 0.1)));
}

TEST(CampaignSpec, SeedsDeriveFromAxisValuesNotPosition)
{
    CampaignSpec spec = tinySpec();
    const auto jobs = spec.expand();

    // The same workload seed is used across modes and mixes (so
    // timing comparisons study the same program) ...
    for (const JobSpec &j : jobs)
        EXPECT_EQ(j.seed,
                  deriveSeed(spec.baseSeed, {j.workload},
                             std::uint64_t(j.seedIndex)));

    // ... while fault seeds decorrelate across cells.
    EXPECT_NE(jobs[2].faultSeed, jobs[6].faultSeed)
        << "same mix, different mode should reseed the injector";

    // Dropping one axis value must not disturb surviving seeds.
    CampaignSpec fewer = tinySpec();
    fewer.modes = {CommitMode::OooWB};
    const auto sub = fewer.expand();
    const JobSpec *match = nullptr;
    for (const JobSpec &j : jobs)
        if (j.mode == CommitMode::OooWB &&
            j.mixName == "delay" && j.seedIndex == 1)
            match = &j;
    ASSERT_NE(match, nullptr);
    bool found = false;
    for (const JobSpec &j : sub)
        if (j.mixName == "delay" && j.seedIndex == 1) {
            found = true;
            EXPECT_EQ(j.seed, match->seed);
            EXPECT_EQ(j.faultSeed, match->faultSeed);
        }
    EXPECT_TRUE(found);

    // Different base seed, different streams.
    CampaignSpec other = tinySpec();
    other.baseSeed = 43;
    EXPECT_NE(other.expand()[0].seed, jobs[0].seed);
}

TEST(CampaignSpec, ManifestParsesAndValidates)
{
    std::istringstream in(
        "# demo manifest\n"
        "name = demo\n"
        "workloads = fft, radix\n"
        "modes = in-order ooo-wb\n"
        "classes = SLM NHM\n"
        "cores = 4\n"
        "network = ideal\n"
        "jitter = 6\n"
        "seeds = 3\n"
        "base-seed = 7\n"
        "scale = 0.25\n"
        "checker = off\n"
        "max-cycles = 1000000\n"
        "retries = 2\n"
        "mix clean\n"
        "mix stormy delay=0.01:50,dup=0.005\n");
    CampaignSpec spec;
    std::string err;
    ASSERT_TRUE(parseCampaignSpec(in, spec, err)) << err;
    EXPECT_EQ(spec.name, "demo");
    EXPECT_EQ(spec.workloads,
              (std::vector<std::string>{"fft", "radix"}));
    EXPECT_EQ(spec.modes.size(), 2u);
    EXPECT_EQ(spec.classes.size(), 2u);
    EXPECT_EQ(spec.machine.numCores, 4);
    EXPECT_EQ(spec.machine.network, NetworkKind::Ideal);
    EXPECT_EQ(spec.seeds, 3);
    EXPECT_EQ(spec.baseSeed, 7u);
    EXPECT_FALSE(spec.machine.checker);
    EXPECT_EQ(spec.maxRetries, 2);
    ASSERT_EQ(spec.mixes.size(), 2u);
    EXPECT_EQ(spec.mixes[1].name, "stormy");
    EXPECT_EQ(spec.mixes[1].spec, "delay=0.01:50,dup=0.005");
    EXPECT_EQ(spec.jobCount(), 2u * 2u * 2u * 2u * 3u);

    std::istringstream bad1("modes = warp-speed\nworkloads = fft\n");
    CampaignSpec s1;
    EXPECT_FALSE(parseCampaignSpec(bad1, s1, err));
    EXPECT_NE(err.find("unknown mode"), std::string::npos);

    std::istringstream bad2("workloads = not-a-benchmark\n");
    CampaignSpec s2;
    EXPECT_FALSE(parseCampaignSpec(bad2, s2, err));
    EXPECT_NE(err.find("unknown workload"), std::string::npos);

    std::istringstream bad3(
        "workloads = fft\nmix broken drop=oops\n");
    CampaignSpec s3;
    EXPECT_FALSE(parseCampaignSpec(bad3, s3, err));

    // Wider than the directory's sharer set.
    std::istringstream bad4("workloads = fft\ncores = " +
                            std::to_string(maxCores + 1) + "\n");
    CampaignSpec s4;
    EXPECT_FALSE(parseCampaignSpec(bad4, s4, err));
    EXPECT_NE(err.find("cores"), std::string::npos);

    // Numbers parse whole and within range, and the error names the
    // line. std::atoi once read each of these as something else.
    const struct
    {
        const char *text;
        const char *error;
    } rejects[] = {
        {"workloads = fft\njitter = -5\n",
         "line 2: jitter: '-5' is not an unsigned number"},
        {"workloads = fft\njitter = 10001\n",
         "line 2: jitter: 10001 out of range [0, 10000]"},
        {"workloads = fft\n\ncores = 4x\n",
         "line 3: cores: trailing garbage 'x' after number in '4x'"},
        {"scale = abc\nworkloads = fft\n",
         "line 1: scale: 'abc' is not a number"},
        {"workloads = fft\nseeds = 2x\n",
         "line 2: seeds: trailing garbage 'x' after number in '2x'"},
        {"workloads = fft\nseeds = 0\n",
         "line 2: seeds: 0 out of range [1, 2147483647]"},
        {"# comment\nretry-budget = 99999999999\n",
         "line 2: retry-budget: 99999999999 out of range [0, "
         "4294967295]"},
    };
    for (const auto &r : rejects) {
        std::istringstream bad(r.text);
        CampaignSpec s;
        EXPECT_FALSE(parseCampaignSpec(bad, s, err)) << r.text;
        EXPECT_EQ(err, r.error);
    }
}

// validate() holds every job's machine to System's own rules, so a
// programmatic spec (no manifest parser in the way) is refused with
// the words System would fatal with.
TEST(CampaignSpec, ValidateRefusesWhatSystemRefuses)
{
    CampaignSpec wide;
    wide.workloads = {"fft"};
    wide.machine.numCores = maxCores + 1;

    CampaignSpec no_poll;
    no_poll.workloads = {"fft"};
    no_poll.machine.recovery.enabled = true;
    no_poll.machine.recovery.pollCycles = 0;

    CampaignSpec hooked; // one variant's hook breaks its machine
    hooked.workloads = {"fft"};
    hooked.machine.numCores = 4;
    hooked.variants = {"ok", "robless"};
    hooked.configHook = [](const JobSpec &job, SystemConfig &cfg) {
        if (job.variant == "robless")
            cfg.core.robSize = 0;
    };

    const struct
    {
        const CampaignSpec &spec;
        const char *refusal;
    } cases[] = {
        {wide, "numCores must be in [1, 32] (the directory's sharer "
               "set), got 33"},
        {no_poll, "recovery config: cycle parameters must be >= 1"},
        {hooked, "core.robSize must be >= 1, got 0"},
    };
    for (const auto &c : cases) {
        EXPECT_EQ(c.spec.validate(), c.refusal);
        const JobSpec job = c.spec.expand().back();
        Workload wl;
        wl.threads.resize(std::size_t(c.spec.machine.numCores),
                          Program{Instr{Opcode::Halt, 0, 0, 0, 0, 0}});
        try {
            System sys(c.spec.configFor(job), wl);
            ADD_FAILURE() << "System built " << c.refusal;
        } catch (const std::runtime_error &e) {
            EXPECT_EQ(e.what(), std::string("fatal: ") + c.refusal);
        }
    }

    hooked.variants = {"ok"};
    EXPECT_EQ(hooked.validate(), "");
}

// Each manifest key of the machine lands in the SystemConfig a job
// runs, and nowhere else; a watchdog count of 0 keeps System's
// default (poll = 0 would otherwise switch the per-transaction
// watchdog off).
TEST(CampaignSpec, ManifestKeysSetTheJobMachine)
{
    const auto jobConfig = [](const std::string &line) {
        std::istringstream in("workloads = fft\n" + line + "\n");
        CampaignSpec spec;
        std::string err;
        EXPECT_TRUE(parseCampaignSpec(in, spec, err)) << err;
        return spec.configFor(spec.expand().front());
    };
    const SystemConfig base = jobConfig("");
    EXPECT_EQ(base.ideal.jitter, Tick(10));
    EXPECT_EQ(base.maxCycles, Tick(400'000'000));
    const SystemConfig sys{};

    using Set = std::function<void(SystemConfig &)>;
    const struct
    {
        const char *line;
        Set set;
    } rows[] = {
        {"cores = 4",
         [](SystemConfig &c) {
             c.numCores = 4;
             c.mesh.fit(4);
         }},
        {"network = ideal",
         [](SystemConfig &c) { c.network = NetworkKind::Ideal; }},
        {"jitter = 6", [](SystemConfig &c) { c.ideal.jitter = 6; }},
        {"checker = off", [](SystemConfig &c) { c.checker = false; }},
        {"max-cycles = 5000", [](SystemConfig &c) { c.maxCycles = 5000; }},
        {"watchdog = 7000",
         [](SystemConfig &c) { c.watchdogCycles = 7000; }},
        {"txn-warn = 7001",
         [](SystemConfig &c) { c.txnWarnCycles = 7001; }},
        {"txn-deadlock = 7002",
         [](SystemConfig &c) { c.txnDeadlockCycles = 7002; }},
        {"poll = 7003",
         [](SystemConfig &c) { c.watchdogPollCycles = 7003; }},
        {"drain = 7004",
         [](SystemConfig &c) { c.teardownDrainCycles = 7004; }},
        {"watchdog = 0", nullptr},
        {"txn-warn = 0", nullptr},
        {"txn-deadlock = 0", nullptr},
        {"poll = 0", nullptr},
        {"drain = 0", nullptr},
        {"recovery = on",
         [](SystemConfig &c) { c.recovery.enabled = true; }},
        {"retry-timeout = 99",
         [](SystemConfig &c) { c.recovery.retryTimeoutCycles = 99; }},
        {"retry-budget = 9",
         [](SystemConfig &c) { c.recovery.retryBudget = 9; }},
        {"recovery-poll = 98",
         [](SystemConfig &c) { c.recovery.pollCycles = 98; }},
        {"retransmit-base = 97",
         [](SystemConfig &c) { c.recovery.retransmitBaseCycles = 97; }},
        {"retransmit-budget = 7",
         [](SystemConfig &c) { c.recovery.retransmitBudget = 7; }},
        {"flight-recorder = 64",
         [](SystemConfig &c) { c.obs.flightRecorder = 64; }},
        {"timeline-period = 500",
         [](SystemConfig &c) { c.obs.timelinePeriod = 500; }},
        {"metrics-period = 600",
         [](SystemConfig &c) { c.obs.metricsPeriod = 600; }},
    };
    for (const auto &row : rows) {
        SCOPED_TRACE(row.line);
        SystemConfig want = base;
        if (row.set) {
            row.set(want);
            EXPECT_TRUE(configFingerprint(want) !=
                            configFingerprint(base) ||
                        want.obs.metricsPeriod != base.obs.metricsPeriod);
        }
        const SystemConfig got = jobConfig(row.line);
        EXPECT_EQ(configFingerprint(got), configFingerprint(want));
        EXPECT_EQ(got.obs.metricsPeriod, want.obs.metricsPeriod);
    }
    EXPECT_EQ(jobConfig("poll = 0").watchdogPollCycles, Tick(2048));
    for (const char *line : {"watchdog = 0", "txn-warn = 0",
                             "txn-deadlock = 0", "poll = 0",
                             "drain = 0"}) {
        const SystemConfig got = jobConfig(line);
        EXPECT_EQ(got.watchdogCycles, sys.watchdogCycles) << line;
        EXPECT_EQ(got.txnWarnCycles, sys.txnWarnCycles) << line;
        EXPECT_EQ(got.txnDeadlockCycles, sys.txnDeadlockCycles) << line;
        EXPECT_EQ(got.watchdogPollCycles, sys.watchdogPollCycles)
            << line;
        EXPECT_EQ(got.teardownDrainCycles, sys.teardownDrainCycles)
            << line;
    }
    // A later 0 goes back to the default, not to the earlier value.
    EXPECT_EQ(jobConfig("poll = 7003\npoll = 0").watchdogPollCycles,
              sys.watchdogPollCycles);
}

TEST(CampaignAggregator, ReductionAndLiveCounts)
{
    CampaignSpec spec = tinySpec();
    const auto jobs = spec.expand();

    CampaignAggregator agg(jobs.size());
    std::vector<JobResult> results(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        JobResult &r = results[i];
        r.spec = jobs[i];
        r.results.completed = true;
        r.results.cycles = 1000 * (i + 1);
        r.results.instructions = 10 * (i + 1);
        if (i == 3) { // one deadlock, incomplete
            r.outcome = RunOutcome::Deadlock;
            r.verdict = "deadlock";
            r.results.completed = false;
        }
        if (i == 5) // one retried job
            r.attempts = 2;
        agg.record(r);
    }

    const CampaignSummary s = agg.summary();
    EXPECT_EQ(s.done, jobs.size());
    EXPECT_EQ(s.ok, jobs.size() - 1);
    EXPECT_EQ(s.deadlocks, 1u);
    EXPECT_EQ(s.incomplete, 1u);
    EXPECT_EQ(s.retried, 1u);
    EXPECT_EQ(s.hardFailures(), 0u);

    const auto cells = reduceCells(spec, results);
    ASSERT_EQ(cells.size(), 4u); // 2 modes x 2 mixes
    EXPECT_EQ(cells[0].key, "in-order/clean");
    EXPECT_EQ(cells[0].count, 2u);
    EXPECT_EQ(cells[0].cycles.min, 1000u);
    EXPECT_EQ(cells[0].cycles.max, 2000u);
    EXPECT_EQ(cells[0].cycles.sum, 3000u);
    EXPECT_DOUBLE_EQ(cells[0].cycles.mean(), 1500.0);
    EXPECT_EQ(cells[1].key, "in-order/delay");
    EXPECT_EQ(cells[1].deadlocks, 1u);
    EXPECT_EQ(cells[1].incomplete, 1u);
}

TEST(CampaignRunner, RunsRealJobsToClassifiedResults)
{
    const CampaignResult result = runSpec(tinySpec(), 2);
    ASSERT_EQ(result.jobs.size(), 8u);
    EXPECT_EQ(result.summary.done, 8u);
    EXPECT_EQ(result.summary.hardFailures(), 0u);
    for (const JobResult &r : result.jobs) {
        EXPECT_FALSE(r.verdict.empty());
        EXPECT_EQ(r.attempts, 1);
        if (r.outcome == RunOutcome::Ok) {
            EXPECT_TRUE(r.results.completed);
            EXPECT_EQ(r.results.leakedMessages, 0u);
        }
    }
    // find() addresses cells by axis values.
    const JobResult *r = result.find(
        "tiny", CommitMode::OooWB, CoreClass::SLM, "", "delay", 1);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->spec.mixName, "delay");
    EXPECT_EQ(r->spec.seedIndex, 1);
}

TEST(CampaignRunner, CrashIsolationRecordsFaultedJobs)
{
    // A drop mix guarantees some jobs end with the deadlock
    // taxonomy (exit 3). The campaign must record them — crash
    // report captured — and keep going.
    CampaignSpec spec = tinySpec();
    spec.mixes = {{"clean", ""}, {"drop", "drop=0.05:2"}};
    spec.seeds = 3;
    fastWatchdogs(spec.machine);

    const CampaignResult result = runSpec(spec, 4);
    EXPECT_EQ(result.summary.done, result.jobs.size());

    std::size_t dropped_jobs = 0;
    for (const JobResult &r : result.jobs)
        if (r.results.faultsDropped > 0) {
            ++dropped_jobs;
            EXPECT_EQ(r.outcome, RunOutcome::Deadlock)
                << "job " << r.spec.index;
            EXPECT_FALSE(r.crashJson.empty());
            EXPECT_NE(r.crashJson.find("wbsim-crash-1"),
                      std::string::npos);
        }
    ASSERT_GT(dropped_jobs, 0u)
        << "drop mix never dropped — spec too small";

    // Clean-mix jobs were untouched by their neighbours' crashes.
    for (const JobResult &r : result.jobs) {
        if (r.spec.mixName == "clean") {
            EXPECT_EQ(r.outcome, RunOutcome::Ok);
        }
    }

    EXPECT_TRUE(checkFaultInvariants(result).empty());
}

TEST(CampaignRunner, CrashSidecarsMatchAndRehomeFromTheCache)
{
    // The drop mix of CrashIsolationRecordsFaultedJobs, run with an
    // output directory and a result cache: every abnormal job's
    // crash-job<N>.json holds exactly its crashJson, and a rerun
    // served wholly from the cache rewrites each sidecar,
    // byte-equal, into the new output directory.
    CampaignSpec spec = tinySpec();
    spec.mixes = {{"clean", ""}, {"drop", "drop=0.05:2"}};
    spec.seeds = 3;
    fastWatchdogs(spec.machine);

    const std::string root = testing::TempDir() + "wbcrash-sidecars";
    std::filesystem::remove_all(root);
    auto run = [&](const std::string &out) {
        CampaignRunner::Options opts;
        opts.jobs = 4;
        opts.progress = false;
        opts.outDir = root + "/" + out;
        opts.cacheDir = root + "/cache";
        return CampaignRunner(spec, opts).run();
    };
    auto slurp = [](const std::string &path) {
        std::ifstream f(path, std::ios::binary);
        std::stringstream ss;
        ss << f.rdbuf();
        return ss.str();
    };
    auto sidecar = [&](const std::string &out, std::size_t i) {
        return root + "/" + out + "/crash-job" + std::to_string(i) +
               ".json";
    };

    const CampaignResult first = run("a");
    std::size_t abnormal = 0;
    for (const JobResult &r : first.jobs) {
        if (r.outcome == RunOutcome::Ok) {
            EXPECT_TRUE(r.crashReportPath.empty());
            continue;
        }
        ++abnormal;
        EXPECT_EQ(r.crashReportPath, sidecar("a", r.spec.index));
        EXPECT_EQ(slurp(r.crashReportPath), r.crashJson)
            << "job " << r.spec.index;
    }
    ASSERT_GT(abnormal, 0u) << "drop mix never faulted";

    const CampaignResult second = run("b");
    EXPECT_EQ(second.cacheHits, spec.jobCount());
    EXPECT_EQ(second.cacheMisses, 0u);
    ASSERT_EQ(second.jobs.size(), first.jobs.size());
    for (std::size_t i = 0; i < first.jobs.size(); ++i) {
        const JobResult &r = second.jobs[i];
        EXPECT_EQ(r.crashJson, first.jobs[i].crashJson);
        if (r.outcome == RunOutcome::Ok) {
            EXPECT_TRUE(r.crashReportPath.empty());
            continue;
        }
        EXPECT_EQ(r.crashReportPath, sidecar("b", i));
        EXPECT_EQ(slurp(r.crashReportPath), slurp(sidecar("a", i)))
            << "job " << i;
    }
    std::filesystem::remove_all(root);
}

TEST(CampaignRunner, InfraFailuresRetryBoundedThenRecord)
{
    CampaignSpec spec = tinySpec();
    spec.modes = {CommitMode::InOrder};
    spec.mixes = {{"clean", ""}};
    spec.seeds = 3;
    spec.maxRetries = 2;

    // Seed index 1's workload factory always throws: an
    // infrastructure failure, not a simulation outcome.
    std::atomic<int> builds{0};
    auto base = spec.workloadFactory;
    spec.workloadFactory = [&builds, base](const JobSpec &job,
                                           const CampaignSpec &s) {
        builds.fetch_add(1);
        if (job.seedIndex == 1)
            throw std::runtime_error("flaky workload generator");
        return base(job, s);
    };

    const CampaignResult result = runSpec(spec, 2);
    ASSERT_EQ(result.jobs.size(), 3u);
    EXPECT_EQ(result.summary.infraFailures, 1u);
    EXPECT_EQ(result.summary.ok, 2u);

    const JobResult &bad = result.jobs[1];
    EXPECT_TRUE(bad.infraFailure);
    EXPECT_EQ(bad.verdict, "infra-failure");
    EXPECT_EQ(bad.attempts, spec.maxRetries + 1);
    EXPECT_NE(bad.detail.find("flaky workload generator"),
              std::string::npos);
    // 2 good jobs build once, the bad one 1 + maxRetries times.
    EXPECT_EQ(builds.load(), 2 + spec.maxRetries + 1);
    // The neighbours were unaffected.
    EXPECT_EQ(result.jobs[0].outcome, RunOutcome::Ok);
    EXPECT_EQ(result.jobs[2].outcome, RunOutcome::Ok);
}

TEST(CampaignDeterminism, WorkerCountCannotChangeTheReport)
{
    CampaignSpec spec = tinySpec();
    spec.mixes.push_back({"drop", "drop=0.05:2"});
    fastWatchdogs(spec.machine);

    const CampaignResult serial = runSpec(spec, 1);
    const CampaignResult wide = runSpec(spec, 8);

    std::ostringstream j1, j8, c1, c8;
    writeCampaignJson(j1, spec, serial);
    writeCampaignJson(j8, spec, wide);
    EXPECT_EQ(j1.str(), j8.str())
        << "-j1 and -j8 aggregate JSON must be byte-identical";
    writeCampaignCsv(c1, serial);
    writeCampaignCsv(c8, wide);
    EXPECT_EQ(c1.str(), c8.str());

    // Spot-check the JSON carries the contract fields.
    EXPECT_NE(j1.str().find("\"schema\":\"wbsim-campaign-1\""),
              std::string::npos);
    EXPECT_NE(j1.str().find("\"incomplete\":"), std::string::npos);
    EXPECT_NE(j1.str().find("\"cells\":["), std::string::npos);
}

TEST(CampaignDeterminism, CrashReportsAreBitIdenticalAcrossRuns)
{
    CampaignSpec spec = tinySpec();
    spec.modes = {CommitMode::OooWB};
    spec.mixes = {{"drop", "drop=0.05:2"}};
    spec.seeds = 2;
    fastWatchdogs(spec.machine);

    const CampaignResult a = runSpec(spec, 2);
    const CampaignResult b = runSpec(spec, 1);
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (std::size_t i = 0; i < a.jobs.size(); ++i) {
        EXPECT_EQ(a.jobs[i].verdict, b.jobs[i].verdict);
        EXPECT_EQ(a.jobs[i].crashJson, b.jobs[i].crashJson);
    }
}

namespace
{

std::string
freshTeleDir(const std::string &name)
{
    const std::string d = testing::TempDir() + "wbtele-" + name;
    std::filesystem::remove_all(d);
    std::filesystem::create_directories(d);
    return d;
}

/** Read a sidecar, dropping the wall-clock header key — the one
 *  field deliberately outside the determinism contract. */
std::string
sidecarNoWall(const std::string &path)
{
    std::ifstream f(path);
    std::stringstream ss;
    ss << f.rdbuf();
    std::string s = ss.str();
    const auto b = s.find("\"wall\":{");
    if (b != std::string::npos) {
        const auto e = s.find("},", b);
        if (e != std::string::npos)
            s.erase(b, e - b + 2);
    }
    return s;
}

CampaignResult
runSpecWithTelemetry(const CampaignSpec &spec, int jobs,
                     const std::string &dir, Tick period)
{
    CampaignRunner::Options opts;
    opts.jobs = jobs;
    opts.progress = false;
    opts.telemetryDir = dir;
    opts.telemetryPeriod = period;
    CampaignRunner runner(spec, opts);
    return runner.run();
}

} // namespace

TEST(CampaignSpec, MetricsPeriodManifestKeyReachesJobConfigs)
{
    std::istringstream in("name = demo\n"
                          "workloads = fft\n"
                          "metrics-period = 12345\n");
    CampaignSpec spec;
    std::string err;
    ASSERT_TRUE(parseCampaignSpec(in, spec, err)) << err;
    EXPECT_EQ(spec.machine.obs.metricsPeriod, Tick(12345));

    const auto jobs = spec.expand();
    ASSERT_FALSE(jobs.empty());
    const SystemConfig cfg = spec.configFor(jobs[0]);
    EXPECT_EQ(cfg.obs.metricsPeriod, Tick(12345));
    EXPECT_TRUE(cfg.obs.metricsEnabled());
}

TEST(CampaignTelemetry, SidecarsAreByteIdenticalAcrossWorkerCounts)
{
    const CampaignSpec spec = tinySpec();
    const std::string d1 = freshTeleDir("j1");
    const std::string d4 = freshTeleDir("j4");
    const CampaignResult serial =
        runSpecWithTelemetry(spec, 1, d1, 5'000);
    const CampaignResult wide =
        runSpecWithTelemetry(spec, 4, d4, 5'000);
    EXPECT_EQ(serial.summary.done, spec.jobCount());
    EXPECT_EQ(wide.summary.done, spec.jobCount());

    // Telemetry must never leak into the aggregate report: a run
    // with sidecars enabled reports byte-identically to one without.
    const CampaignResult plain = runSpec(spec, 2);
    std::ostringstream jt, jp;
    writeCampaignJson(jt, spec, serial);
    writeCampaignJson(jp, spec, plain);
    EXPECT_EQ(jt.str(), jp.str())
        << "telemetry perturbed the aggregate JSON";

    // Per-job streams land in sidecars that do not depend on the
    // worker count, modulo the wall-clock header key.
    for (std::size_t i = 0; i < spec.jobCount(); ++i) {
        const std::string name =
            "/metrics-job" + std::to_string(i) + ".ndjson";
        ASSERT_TRUE(std::filesystem::exists(d1 + name)) << name;
        ASSERT_TRUE(std::filesystem::exists(d4 + name)) << name;
        const std::string a = sidecarNoWall(d1 + name);
        EXPECT_EQ(a, sidecarNoWall(d4 + name)) << name;
        EXPECT_NE(a.find("\"schema\":\"wb-metrics-1\""),
                  std::string::npos);
        EXPECT_NE(a.find("\"tick\":"), std::string::npos);
    }

    // The Prometheus exposition sidecar rides along per job.
    const std::string prom = d1 + "/metrics-job0.prom";
    ASSERT_TRUE(std::filesystem::exists(prom));
    EXPECT_NE(sidecarNoWall(prom).find("# TYPE wb_commits counter"),
              std::string::npos);
}

// The full builtin fault campaign, plain and with recovery plus the
// fault-free-twin equivalence check, pinned byte for byte: the
// aggregate JSON and CSV and every job's crash report, in job order.
// Its panics unwind with deliveries still scheduled, so the pins
// also cover what the network's ledger reports after a panic.
TEST(FaultCampaign, OutputsArePinned)
{
    for (const bool recovery : {false, true}) {
        SCOPED_TRACE(recovery ? "recovery" : "plain");
        CampaignSpec spec = faultCampaignSpec();
        spec.machine.recovery.enabled = recovery;
        ASSERT_EQ(spec.validate(), "");
        ASSERT_EQ(spec.jobCount(), 504u);
        for (const int jobs : {2, 4}) {
            SCOPED_TRACE(jobs);
            CampaignRunner::Options opts;
            opts.jobs = jobs;
            opts.progress = false;
            opts.verifyEquivalence = recovery;
            const CampaignResult res = CampaignRunner(spec, opts).run();
            std::ostringstream json, csv;
            writeCampaignJson(json, spec, res);
            writeCampaignCsv(csv, res);
            std::uint64_t h = fnv1a64(json.str());
            h = fnv1a64(csv.str(), h);
            for (const JobResult &r : res.jobs)
                h = fnv1a64(r.crashJson, h);
            EXPECT_EQ(h, recovery ? 0xf41bcbef195678f6ULL
                                  : 0xe08b75ac61a3765cULL);
        }
    }
}

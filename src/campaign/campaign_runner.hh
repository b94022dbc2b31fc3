/**
 * @file
 * Multi-threaded campaign execution with per-job crash isolation.
 *
 * CampaignRunner expands a CampaignSpec into its deterministic job
 * list and executes the jobs on a pool of worker threads (one per
 * hardware thread by default, Options::jobs to override). Each job
 * builds a self-contained wb::System — the simulator holds no
 * mutable global state (see sim/log.hh for the contract) — so jobs
 * are data-race free and results are bit-identical for any worker
 * count or completion order.
 *
 * Crash isolation reuses the PR-1 exit taxonomy: a job ending in a
 * TSO violation, deadlock, or panic is *recorded* (with a captured
 * crash report, and a crash-report file when an output directory is
 * configured) and the campaign keeps going. Only failures of the
 * runner's own infrastructure — exceptions thrown outside the
 * classified System::run(), e.g. while building the workload —
 * are retried, up to CampaignSpec::maxRetries times, then recorded
 * as "infra-failure".
 */

#ifndef WB_CAMPAIGN_CAMPAIGN_RUNNER_HH
#define WB_CAMPAIGN_CAMPAIGN_RUNNER_HH

#include <atomic>
#include <string>
#include <vector>

#include "campaign/campaign_spec.hh"
#include "obs/metrics.hh"
#include "system/crash_report.hh"

namespace wb
{

/**
 * Live-telemetry plumbing handed to job executors (thread backend,
 * worker processes). When present and period != 0, each job's
 * System gets a metrics snapshot stream whose lines are delivered
 * through @c emit — tagged with the job index so per-job NDJSON
 * sidecars are deterministic for any worker count. Telemetry never
 * touches the aggregate JSON/CSV: it lives beside them, like the
 * durability counters (docs/CAMPAIGN.md).
 */
struct TelemetryHooks
{
    /** Snapshot period in cycles; 0 disables telemetry. */
    Tick period = 0;
    /** Directory for end-of-job exposition sidecars
     *  (metrics-job<N>.prom); "" = none. */
    std::string dir;
    /** Per-line sink. Called from whichever thread runs the job
     *  (or, process backend, from the supervisor's frame loop);
     *  implementations synchronise internally. */
    std::function<void(std::size_t job, const MetricsSummary &sum,
                       const std::string &line)>
        emit;

    bool enabled() const { return period != 0; }
};

/** Everything one finished job left behind. */
struct JobResult
{
    JobSpec spec;
    RunOutcome outcome = RunOutcome::Ok;
    /** "ok" | "tso-violation" | "deadlock" | "cycle-cap" | "panic"
     *  | "infra-failure", plus the process-backend supervision
     *  verdicts "worker-crash" | "job-timeout" | "job-oom"
     *  (worker_pool.hh; same exit taxonomy). */
    std::string verdict = "ok";
    std::string detail;
    SimResults results;
    int attempts = 1;          //!< 1 + infrastructure retries
    bool infraFailure = false; //!< retries exhausted
    /** Captured crash-report JSON (abnormal outcomes only). */
    std::string crashJson;
    /** Where the crash report was written ("" if not). */
    std::string crashReportPath;

    /** End-state equivalence against the fault-free twin of the
     *  same (workload, seed). Checked only in verify-equivalence
     *  mode, for faulty jobs that completed cleanly. */
    bool equivalenceChecked = false;
    bool equivalenceMatch = false;
    std::string equivalenceDetail; //!< first divergence ("" = match)
};

/** Everything needed to rebuild the campaign on --resume; written
 *  as the journal header (see job_journal.hh for the file format). */
struct JournalHeader
{
    /** "manifest" (specText = manifest contents) or "builtin"
     *  (specText = builtin name). */
    std::string specKind;
    std::string specText;

    // CLI overrides that shape the job list / results.
    std::int64_t seedsOverride = 0;
    bool recovery = false;
    bool verifyEquivalence = false;
    bool checkFaults = false;
    bool strict = false;

    /** Fingerprint of the expanded job list; resume refuses a
     *  journal whose jobs do not match the rebuilt spec. */
    std::uint64_t specFingerprint = 0;
    std::uint64_t jobCount = 0;
};

/** Outcome counts over a set of jobs: the campaign summary and
 *  every aggregation cell tally the same way (add()). */
struct OutcomeTally
{
    std::size_t ok = 0;
    std::size_t tsoViolations = 0;
    std::size_t deadlocks = 0; //!< includes cycle-cap verdicts
    std::size_t panics = 0;
    std::size_t infraFailures = 0;
    std::size_t incomplete = 0; //!< jobs with !results.completed
    std::size_t equivalenceChecked = 0;
    std::size_t equivalenceMismatches = 0;

    /** Count one finished job. */
    void add(const JobResult &r);
};

/** Order-independent campaign tallies (live and final). */
struct CampaignSummary : OutcomeTally
{
    std::size_t total = 0;
    std::size_t done = 0;
    std::size_t retried = 0; //!< jobs that needed >1 attempt

    /** Abnormal outcomes a campaign should alarm on by default. */
    std::size_t
    hardFailures() const
    {
        return tsoViolations + panics + infraFailures +
               equivalenceMismatches;
    }
};

/** What process-backend supervision did during one campaign
 *  (worker_pool.hh); all zero under the thread backend. Sidecar-only
 *  like the cache counters: it describes the host run, not the
 *  experiment. */
struct WorkerPoolStats
{
    std::size_t workerRestarts = 0;      //!< respawns performed
    std::size_t workerCrashes = 0;       //!< abnormal worker deaths
    std::size_t jobTimeouts = 0;         //!< deadline/heartbeat kills
    std::size_t jobOoms = 0;             //!< jobs ending "job-oom"
    std::size_t quarantined = 0;         //!< poison jobs recorded
    std::size_t degradedTransitions = 0; //!< supervision gave ground
    std::size_t inProcessJobs = 0; //!< run on the thread backend
                                   //!< after every worker was lost
    /** Every worker slot is gone with jobs left: the runner drains
     *  them on the thread backend. */
    bool degraded = false;
};

/** The whole campaign's outcome, ordered by job index. */
struct CampaignResult
{
    std::vector<JobResult> jobs;
    CampaignSummary summary;
    double wallSeconds = 0; //!< never serialised (non-deterministic)

    // Durability bookkeeping. None of these enter the aggregate
    // JSON/CSV — a resumed or cache-assisted campaign must stay
    // byte-identical to an uninterrupted cold one — they go to the
    // durability.json sidecar and stderr instead.
    bool interrupted = false;  //!< stop flag fired; job list is
                               //!< partial (jobs[] has empty slots)
    std::size_t journaled = 0; //!< records written to the journal
                               //!< (replayed + freshly executed)
    std::size_t cacheHits = 0;
    std::size_t cacheMisses = 0;

    WorkerPoolStats supervision;

    /** Linear lookup by axis values; nullptr when absent. */
    const JobResult *find(const std::string &workload,
                          CommitMode mode, CoreClass cls,
                          const std::string &variant = "",
                          const std::string &mix = "clean",
                          int seed_index = 0) const;
};

/** Supervision policy for the process-isolated backend
 *  (worker_pool.hh). Defaults are service-grade conservative; the
 *  wbcampaign flags --job-timeout/--job-mem-limit/--max-respawns/
 *  --poison-threshold map onto the matching fields. */
struct ProcessPoolOptions
{
    /** Run jobs in forked worker processes instead of threads. */
    bool enabled = false;
    /** Per-job wall-clock deadline enforced by the supervisor; the
     *  worker also arms RLIMIT_CPU from it so a spin that starves
     *  the supervisor still dies. 0 = no deadline. */
    double jobTimeoutSeconds = 0;
    /** Per-worker RLIMIT_AS in MiB; an allocation beyond it fails
     *  with bad_alloc and the job is recorded as "job-oom".
     *  0 = unlimited. */
    std::uint64_t jobMemLimitMb = 0;
    /** Worker heartbeat period, and how long the supervisor
     *  tolerates silence before declaring the worker wedged. */
    double heartbeatSeconds = 1.0;
    double heartbeatGraceSeconds = 30.0;
    /** Respawns per worker slot; exhausting it retires the slot,
     *  and losing every slot drains the rest on the thread
     *  backend. */
    int maxRespawnsPerWorker = 3;
    /** Exponential backoff between respawns of the same slot
     *  (capped at 5 s). */
    double backoffBaseSeconds = 0.25;
    /** A job whose execution kills this many consecutive workers
     *  is quarantined: recorded as a classified failure with a
     *  crash report and never retried. */
    int poisonThreshold = 2;
    /** Deterministic fault-injection hook for the supervision
     *  tests: "[once:]MODE@JOBINDEX" with MODE one of
     *  segv|abort|exit|hang|mute|oom (worker_pool.cc). Only active
     *  inside --worker processes. */
    std::string chaos;
    /** Signal-handler self-pipe read end; wakes the supervisor's
     *  poll immediately on SIGINT/SIGTERM. -1 = rely on the poll
     *  timeout to notice the stop flag. */
    int wakeFd = -1;
};

/** Thread-pool executor for one campaign. */
class CampaignRunner
{
  public:
    struct Options
    {
        /** Worker threads; 0 = one per hardware thread. */
        int jobs = 0;
        /** Directory for crash-report files; "" = keep them only
         *  in-memory (JobResult::crashJson). */
        std::string outDir;
        /** Live progress line (jobs done/total, ETA, worker
         *  occupancy) on stderr. Auto-degrades to occasional plain
         *  lines when stderr is not a tty. */
        bool progress = true;
        /** After every faulty job that completes cleanly, re-run
         *  its fault-free twin (faults cleared, recovery off) and
         *  compare end states; a divergence is a hard failure. */
        bool verifyEquivalence = false;

        /** Cooperative stop (signal handler sets it): workers stop
         *  claiming new jobs, in-flight jobs drain and are
         *  journaled, run() returns with interrupted = true. */
        const std::atomic<bool> *stopFlag = nullptr;
        /** Write-ahead journal path; "" = no journal. Each finished
         *  job is appended and fsynced (job_journal.hh). */
        std::string journalPath;
        /** Journal header to write when journalPath is set; the
         *  runner fills specFingerprint/jobCount itself. */
        JournalHeader journalHeader;
        /** Already-finished results replayed from a --resume
         *  journal; matched to jobs by spec fingerprint + index and
         *  not re-run (they are re-journaled into the fresh
         *  journal so a re-interrupted resume stays resumable). */
        const std::vector<JobResult> *preloaded = nullptr;
        /** Content-addressed result cache directory; "" = off. */
        std::string cacheDir;
        /** Process-isolated execution backend; when enabled the
         *  journal header doubles as the worker spec description,
         *  so specKind/specText must be set. */
        ProcessPoolOptions process;

        /** Live telemetry: per-job NDJSON snapshot streams (and
         *  exposition sidecars) under this directory, plus an
         *  aggregated progress readout; "" = off. Never changes the
         *  aggregate JSON/CSV. */
        std::string telemetryDir;
        /** Telemetry snapshot period in cycles; 0 = the spec's
         *  obs.metricsPeriod, falling back to 50'000. */
        Tick telemetryPeriod = 0;
    };

    explicit CampaignRunner(const CampaignSpec &spec)
        : CampaignRunner(spec, Options())
    {}
    CampaignRunner(const CampaignSpec &spec, Options opts);

    /** Execute every job; blocks until the campaign finishes. */
    CampaignResult run();

    /** Resolved worker count. */
    int workers() const { return _workers; }

  private:
    const CampaignSpec &_spec;
    Options _opts;
    int _workers;
};

/** Run one job with bounded infrastructure retry — the unit of
 *  execution shared by the thread backend and the worker
 *  processes. Never throws: simulation
 *  outcomes are classified, infra failures (including bad_alloc
 *  under RLIMIT_AS, recorded as "job-oom") exhaust
 *  CampaignSpec::maxRetries and are recorded. */
JobResult runCampaignJob(const CampaignSpec &spec, const JobSpec &job,
                         const std::string &outDir,
                         bool verifyEquivalence,
                         const TelemetryHooks *telemetry = nullptr);

/** Write @p res.crashJson to OUT/crash-job<N>.json (N = the job
 *  index) and set crashReportPath on success; with no crash report
 *  or no @p outDir the path is left empty. The one writer of crash
 *  sidecars: executed, cache-served and quarantined jobs. */
void writeCrashSidecar(JobResult &res, const std::string &outDir);

} // namespace wb

#endif // WB_CAMPAIGN_CAMPAIGN_RUNNER_HH

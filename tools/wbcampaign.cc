/**
 * @file
 * wbcampaign — manifest-driven, multi-threaded experiment sweeps.
 *
 * Loads a campaign manifest (docs/CAMPAIGN.md) or a built-in
 * campaign, expands it into a deterministic job list, and executes
 * the jobs on a worker pool with per-job crash isolation. Aggregate
 * JSON/CSV output is byte-identical for any -j, so reports can be
 * diffed across machines and worker counts.
 *
 *   wbcampaign --spec sweep.campaign -j8 --json results.json
 *   wbcampaign --builtin fault --quick -j$(nproc)
 *   wbcampaign --spec sweep.campaign --dry-run
 *
 * Exit codes: 0 campaign ran and holds, 1 failures, 64 usage error.
 * A TSO violation or infrastructure failure always fails. With
 * --check-faults the invariant checker judges classified
 * panics/deadlocks (expected under dup/drop mixes); without it a
 * panic fails, and --strict additionally fails on
 * deadlock/incomplete.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>

#include <fcntl.h>
#include <unistd.h>

#include "campaign/campaign_aggregator.hh"
#include "campaign/campaign_runner.hh"
#include "campaign/campaign_spec.hh"
#include "campaign/fault_invariants.hh"
#include "campaign/job_journal.hh"
#include "campaign/result_cache.hh"
#include "campaign/worker_pool.hh"
#include "sim/parse.hh"

namespace
{

using namespace wb;

/** SIGINT/SIGTERM request a graceful stop: workers finish (and
 *  journal) their in-flight jobs, then the campaign exits with the
 *  resumable code 5. The handler is async-signal-safe by
 *  construction: a lock-free atomic store plus one write() to the
 *  self-pipe that wakes the process-backend supervisor's poll().
 *  The drain is forwarded to worker processes (SIGTERM), so both
 *  layers leave through the cooperative exit-5 path. */
std::atomic<bool> g_stop{false};
int g_wakeFd = -1;

void
onStopSignal(int)
{
    g_stop.store(true, std::memory_order_relaxed);
    if (g_wakeFd >= 0) {
        const unsigned char c = 1;
        [[maybe_unused]] const ssize_t n = ::write(g_wakeFd, &c, 1);
    }
}

void
usage()
{
    std::printf(
        "usage: wbcampaign [options]\n"
        "  --spec FILE       campaign manifest "
        "(docs/CAMPAIGN.md)\n"
        "  --builtin NAME    built-in campaign: fault\n"
        "  -j, --jobs N      worker threads "
        "(default: one per hardware thread)\n"
        "  --seeds N         override the spec's seed count\n"
        "  --quick           shorthand for --seeds 4\n"
        "  --out DIR         write per-job crash reports (and,\n"
        "                    with the manifest's flight-recorder /\n"
        "                    timeline-period keys, per-job traces\n"
        "                    and timelines) here\n"
        "  --json FILE       aggregate JSON report (- for stdout)\n"
        "  --csv FILE        per-job CSV (- for stdout)\n"
        "  --check-faults    assert the fault-campaign invariants\n"
        "                    (default for --builtin fault; the\n"
        "                    invariants then judge classified\n"
        "                    panics/deadlocks)\n"
        "  --recovery        arm the loss-recovery layer (ARQ +\n"
        "                    dedup) for every job, overriding the\n"
        "                    manifest\n"
        "  --verify-equivalence\n"
        "                    implies --recovery; additionally replay\n"
        "                    each faulted run fault-free and fail\n"
        "                    unless the end states match\n"
        "                    (docs/RESILIENCE.md)\n"
        "  --strict          without --check-faults, deadlocks and\n"
        "                    incomplete runs also fail\n"
        "  --resume DIR      resume an interrupted/killed campaign\n"
        "                    from DIR's write-ahead journal: replay\n"
        "                    recorded jobs, run only the rest. The\n"
        "                    spec and overrides come from the\n"
        "                    journal; aggregate output is byte-\n"
        "                    identical to an uninterrupted run\n"
        "  --cache-dir DIR   content-addressed result cache\n"
        "                    (default: OUT/cache when --out is set)\n"
        "  --no-cache        disable the result cache\n"
        "  --process         process-isolated workers: fork/exec a\n"
        "                    supervised worker pool instead of\n"
        "                    threads, so a worker segfault/OOM/hang\n"
        "                    is classified (worker-crash,\n"
        "                    job-timeout, job-oom) without killing\n"
        "                    the campaign (docs/CAMPAIGN.md)\n"
        "  --job-timeout S   per-job wall-clock deadline (seconds,\n"
        "                    process backend; also arms RLIMIT_CPU\n"
        "                    in the workers)\n"
        "  --job-mem-limit M per-worker RLIMIT_AS in MiB; an\n"
        "                    over-budget job is recorded as job-oom\n"
        "  --max-respawns N  respawn budget per worker slot\n"
        "                    (default 3, exponential backoff)\n"
        "  --poison-threshold N\n"
        "                    quarantine a job after it kills N\n"
        "                    consecutive workers (default 2)\n"
        "  --chaos-worker SPEC\n"
        "                    test hook: make a worker fail on a\n"
        "                    chosen job; SPEC = [once:]MODE@INDEX,\n"
        "                    MODE segv|abort|exit|hang|mute|oom\n"
        "                    (implies --process)\n"
        "  --telemetry DIR   live telemetry: per-job metric\n"
        "                    snapshot streams (metrics-jobN.ndjson)\n"
        "                    and end-of-job exposition sidecars\n"
        "                    (metrics-jobN.prom) under DIR, plus an\n"
        "                    aggregated progress readout; with\n"
        "                    --process, snapshots double as sim-\n"
        "                    progress heartbeats that sharpen hang\n"
        "                    detection (docs/OBSERVABILITY.md).\n"
        "                    Aggregate JSON/CSV stay byte-identical\n"
        "  --telemetry-period N\n"
        "                    snapshot period in cycles (default:\n"
        "                    the manifest's metrics-period key, or\n"
        "                    50000)\n"
        "  --heartbeat-grace S\n"
        "                    process backend: kill a worker silent\n"
        "                    (no heartbeat, or busy with no\n"
        "                    telemetry) for S seconds (default 30)\n"
        "  --dry-run         print the expanded job list and exit\n"
        "  --no-progress     disable the live progress line\n"
        "SIGINT/SIGTERM finish in-flight jobs, journal them, and\n"
        "exit 5 (resumable with --resume).\n"
        "exit codes: 0 campaign holds, 1 failures, 5 interrupted\n"
        "            (resumable), 64 usage\n");
}

void
printMatrix(const CampaignSpec &spec, const CampaignResult &result)
{
    std::printf("%-40s %6s %9s %6s %5s %6s %5s\n", "cell", "ok",
                "deadlock", "panic", "tso", "infra", "inc");
    for (const CellSummary &c : reduceCells(spec, result.jobs))
        std::printf("%-40s %6zu %9zu %6zu %5zu %6zu %5zu\n",
                    c.key.c_str(), c.ok, c.deadlocks, c.panics,
                    c.tsoViolations, c.infraFailures,
                    c.incomplete);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace wb;

    // Worker role: speak the pipe protocol on fds 3/4 and nothing
    // else. Checked before option parsing so a supervisor from a
    // newer build cannot be confused by flags it never sends.
    if (argc > 1 && std::strcmp(argv[1], "--worker") == 0)
        return campaignWorkerMain();

    std::string spec_path;
    std::string builtin;
    int jobs = 0;
    int seeds_override = 0;
    std::string out_dir;
    std::string json_path;
    std::string csv_path;
    bool check_faults = false;
    bool strict = false;
    bool dry_run = false;
    bool progress = true;
    bool recovery = false;
    bool verify_equivalence = false;
    std::string resume_dir;
    std::string cache_dir;
    bool no_cache = false;
    bool process_backend = false;
    double job_timeout = 0;
    std::uint64_t job_mem_mb = 0;
    int max_respawns = -1;
    int poison_threshold = 0;
    std::string chaos_spec;
    std::string telemetry_dir;
    Tick telemetry_period = 0;
    double heartbeat_grace = 0;
    constexpr int intMax = std::numeric_limits<int>::max();
    constexpr double realMax = std::numeric_limits<double>::max();

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage();
                std::exit(64);
            }
            return argv[++i];
        };
        bool ok = true; // false: the complaint is printed, exit 64
        if (a == "--spec")
            spec_path = next();
        else if (a == "--builtin")
            builtin = next();
        else if (a == "--jobs" || a.rfind("-j", 0) == 0) {
            // --jobs N, -j N or -jN
            const std::string v =
                a.size() > 2 && a[1] == 'j' ? a.substr(2) : next();
            ok = parseFlag("--jobs", v, 0, 4096, jobs);
        } else if (a == "--seeds")
            ok = parseFlag("--seeds", next(), 1, intMax, seeds_override);
        else if (a == "--quick")
            seeds_override = 4;
        else if (a == "--out")
            out_dir = next();
        else if (a == "--json")
            json_path = next();
        else if (a == "--csv")
            csv_path = next();
        else if (a == "--check-faults")
            check_faults = true;
        else if (a == "--recovery")
            recovery = true;
        else if (a == "--verify-equivalence")
            verify_equivalence = true;
        else if (a == "--strict")
            strict = true;
        else if (a == "--resume")
            resume_dir = next();
        else if (a == "--cache-dir")
            cache_dir = next();
        else if (a == "--no-cache")
            no_cache = true;
        else if (a == "--process")
            process_backend = true;
        else if (a == "--job-timeout")
            ok = parseFlag("--job-timeout", next(), 0.0, realMax,
                           job_timeout);
        else if (a == "--job-mem-limit")
            ok = parseFlag("--job-mem-limit", next(), 0,
                           ~std::uint64_t(0), job_mem_mb);
        else if (a == "--max-respawns")
            ok = parseFlag("--max-respawns", next(), 0, intMax,
                           max_respawns);
        else if (a == "--poison-threshold")
            ok = parseFlag("--poison-threshold", next(), 1, intMax,
                           poison_threshold);
        else if (a == "--chaos-worker") {
            chaos_spec = next();
            process_backend = true;
        } else if (a == "--telemetry")
            telemetry_dir = next();
        else if (a == "--telemetry-period")
            ok = parseFlag("--telemetry-period", next(), 1, ~Tick(0),
                           telemetry_period);
        else if (a == "--heartbeat-grace")
            ok = parseFlag("--heartbeat-grace", next(), 0.0, realMax,
                           heartbeat_grace);
        else if (a == "--dry-run")
            dry_run = true;
        else if (a == "--no-progress")
            progress = false;
        else {
            usage();
            return a == "--help" || a == "-h" ? 0 : 64;
        }
        if (!ok)
            return 64;
    }

    if (telemetry_period != 0 && telemetry_dir.empty()) {
        std::fprintf(stderr,
                     "--telemetry-period needs --telemetry DIR\n");
        return 64;
    }

    if (!chaos_spec.empty()) {
        std::string cmode;
        std::size_t cidx = 0;
        bool conce = false;
        if (!parseChaosSpec(chaos_spec, cmode, cidx, conce)) {
            std::fprintf(stderr,
                         "--chaos-worker: bad spec '%s' (want "
                         "[once:]segv|abort|exit|hang|mute|oom"
                         "@JOBINDEX)\n",
                         chaos_spec.c_str());
            return 64;
        }
    }

    // --resume: the spec and its CLI overrides come from the
    // journal header, so the rebuilt job list is identical to the
    // interrupted campaign's.
    JobJournal::LoadResult journal_load;
    if (!resume_dir.empty()) {
        if (!spec_path.empty() || !builtin.empty()) {
            std::fprintf(stderr, "--resume takes the spec from the "
                                 "journal; drop --spec/--builtin\n");
            return 64;
        }
        std::string err;
        if (!JobJournal::load(resume_dir + "/journal.wbj",
                              journal_load, err)) {
            std::fprintf(stderr, "%s\n", err.c_str());
            return 64;
        }
        const JournalHeader &h = journal_load.header;
        if (h.specKind == "builtin")
            builtin = h.specText;
        else
            spec_path = "<journal>"; // parsed from specText below
        seeds_override = int(h.seedsOverride);
        recovery = h.recovery;
        verify_equivalence = h.verifyEquivalence;
        check_faults = h.checkFaults;
        strict = h.strict;
        out_dir = resume_dir;
    } else if (spec_path.empty() == builtin.empty()) {
        std::fprintf(stderr, "need exactly one of --spec / "
                             "--builtin\n\n");
        usage();
        return 64;
    }

    CampaignSpec spec;
    std::string spec_kind, spec_text;
    if (!builtin.empty()) {
        if (builtin == "fault" && resume_dir.empty())
            check_faults = true;
        spec_kind = "builtin";
        spec_text = builtin;
    } else {
        // Keep the manifest text: the journal header embeds it so
        // --resume needs nothing but the output directory — and
        // the process backend's workers rebuild the identical spec
        // from the very same description.
        if (spec_path == "<journal>") {
            spec_text = journal_load.header.specText;
        } else {
            std::ifstream mf(spec_path);
            if (!mf) {
                std::fprintf(stderr, "cannot open %s\n",
                             spec_path.c_str());
                return 64;
            }
            std::ostringstream ss;
            ss << mf.rdbuf();
            spec_text = ss.str();
        }
        spec_kind = "manifest";
    }
    JournalHeader desc;
    desc.specKind = spec_kind;
    desc.specText = spec_text;
    desc.seedsOverride = seeds_override;
    desc.recovery = recovery;
    desc.verifyEquivalence = verify_equivalence;
    desc.checkFaults = check_faults;
    desc.strict = strict;
    {
        std::string err;
        if (!buildCampaignSpec(desc, spec, err)) {
            std::fprintf(stderr, "%s: %s\n",
                         spec_path.empty() ? builtin.c_str()
                                           : spec_path.c_str(),
                         err.c_str());
            return 64;
        }
    }

    if (dry_run) {
        std::printf("campaign %s: %zu jobs\n", spec.name.c_str(),
                    spec.jobCount());
        for (const JobSpec &j : spec.expand())
            std::printf(
                "%5zu  %-16s %-16s %-4s %-10s seed[%d]=%llu\n",
                j.index, j.workload.c_str(),
                commitModeName(j.mode), coreClassName(j.cls),
                j.mixName.c_str(), j.seedIndex,
                static_cast<unsigned long long>(j.seed));
        return 0;
    }

    if (!resume_dir.empty()) {
        // A journal only resumes the exact campaign it recorded:
        // replayed results must slot into the same job list.
        const std::uint64_t fp = jobListFingerprint(spec.expand());
        if (fp != journal_load.header.specFingerprint) {
            std::fprintf(stderr,
                         "%s/journal.wbj: job list fingerprint "
                         "mismatch (journal %016llx, spec %016llx); "
                         "refusing to resume\n",
                         resume_dir.c_str(),
                         static_cast<unsigned long long>(
                             journal_load.header.specFingerprint),
                         static_cast<unsigned long long>(fp));
            return 64;
        }
    }

    CampaignRunner::Options opts;
    opts.jobs = jobs;
    opts.outDir = out_dir;
    opts.progress = progress;
    opts.verifyEquivalence = verify_equivalence;
    opts.stopFlag = &g_stop;
    opts.journalPath =
        out_dir.empty() ? "" : out_dir + "/journal.wbj";
    opts.journalHeader = desc;
    if (!resume_dir.empty())
        opts.preloaded = &journal_load.jobs;
    if (!no_cache)
        opts.cacheDir = !cache_dir.empty()
                            ? cache_dir
                            : (out_dir.empty()
                                   ? std::string()
                                   : out_dir + "/cache");
    opts.process.enabled = process_backend;
    opts.process.jobTimeoutSeconds = job_timeout;
    opts.process.jobMemLimitMb = job_mem_mb;
    if (max_respawns >= 0)
        opts.process.maxRespawnsPerWorker = max_respawns;
    if (poison_threshold > 0)
        opts.process.poisonThreshold = poison_threshold;
    opts.process.chaos = chaos_spec;
    if (heartbeat_grace > 0)
        opts.process.heartbeatGraceSeconds = heartbeat_grace;
    opts.telemetryDir = telemetry_dir;
    opts.telemetryPeriod = telemetry_period;

    // Self-pipe: the signal handler may only touch the stop flag and
    // this fd, and the supervisor's poll() must wake immediately so a
    // SIGTERM drains the worker pool instead of waiting out the poll
    // timeout.
    int wakepipe[2] = {-1, -1};
    if (::pipe(wakepipe) == 0) {
        for (int fd : wakepipe) {
            ::fcntl(fd, F_SETFL,
                    ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
            ::fcntl(fd, F_SETFD, FD_CLOEXEC);
        }
        g_wakeFd = wakepipe[1];
        opts.process.wakeFd = wakepipe[0];
    }

    CampaignRunner runner(spec, opts);

    // A worker that died mid-write leaves the supervisor writing into
    // a broken pipe; that must surface as EPIPE, not kill the
    // process.
    ::signal(SIGPIPE, SIG_IGN);
    struct sigaction sa = {};
    sa.sa_handler = onStopSignal;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);

    std::printf("campaign %s: %zu jobs on %d worker%s\n",
                spec.name.c_str(), spec.jobCount(),
                runner.workers(), runner.workers() == 1 ? "" : "s");
    if (!resume_dir.empty())
        std::printf("resume: %zu of %zu jobs replayed from journal"
                    "%s\n",
                    journal_load.jobs.size(), spec.jobCount(),
                    journal_load.tornDropped
                        ? " (torn tail record dropped)"
                        : "");
    const CampaignResult result = runner.run();

    // Durability/cache health goes to stderr and a sidecar file,
    // never into the aggregate reports — those must stay
    // byte-identical across cold, cached, and resumed runs.
    if (!opts.cacheDir.empty() || !opts.journalPath.empty())
        std::fprintf(stderr,
                     "durability: %zu journaled, %zu cache hit%s, "
                     "%zu miss%s\n",
                     result.journaled, result.cacheHits,
                     result.cacheHits == 1 ? "" : "s",
                     result.cacheMisses,
                     result.cacheMisses == 1 ? "" : "es");
    if (!telemetry_dir.empty())
        std::fprintf(stderr,
                     "telemetry: per-job streams under %s "
                     "(metrics-jobN.ndjson / .prom)\n",
                     telemetry_dir.c_str());
    const WorkerPoolStats &sup = result.supervision;
    if (process_backend)
        std::fprintf(stderr,
                     "supervision: %zu restart%s, %zu crash%s, "
                     "%zu timeout%s, %zu oom, %zu quarantined, "
                     "%zu degraded, %zu in-process\n",
                     sup.workerRestarts,
                     sup.workerRestarts == 1 ? "" : "s",
                     sup.workerCrashes,
                     sup.workerCrashes == 1 ? "" : "es",
                     sup.jobTimeouts,
                     sup.jobTimeouts == 1 ? "" : "s",
                     sup.jobOoms, sup.quarantined,
                     sup.degradedTransitions,
                     sup.inProcessJobs);
    if (!out_dir.empty()) {
        std::ofstream d(out_dir + "/durability.json");
        if (d)
            d << "{\n"
              << "  \"interrupted\": "
              << (result.interrupted ? "true" : "false") << ",\n"
              << "  \"jobsDone\": " << result.summary.done << ",\n"
              << "  \"jobsTotal\": " << result.summary.total
              << ",\n"
              << "  \"journaled\": " << result.journaled << ",\n"
              << "  \"cacheHits\": " << result.cacheHits << ",\n"
              << "  \"cacheMisses\": " << result.cacheMisses
              << ",\n"
              << "  \"tornDropped\": " << journal_load.tornDropped
              << ",\n"
              << "  \"workerRestarts\": " << sup.workerRestarts
              << ",\n"
              << "  \"workerCrashes\": " << sup.workerCrashes
              << ",\n"
              << "  \"jobTimeouts\": " << sup.jobTimeouts
              << ",\n"
              << "  \"jobOoms\": " << sup.jobOoms << ",\n"
              << "  \"quarantined\": " << sup.quarantined
              << ",\n"
              << "  \"degradedTransitions\": "
              << sup.degradedTransitions << ",\n"
              << "  \"inProcessJobs\": " << sup.inProcessJobs
              << "\n}\n";
    }

    if (result.interrupted) {
        std::printf("\ninterrupted: %zu/%zu jobs done",
                    result.summary.done, result.summary.total);
        if (!out_dir.empty())
            std::printf("; resume with: wbcampaign --resume %s",
                        out_dir.c_str());
        else
            std::printf(" (no --out directory, so no journal "
                        "was kept; not resumable)");
        std::printf("\n");
        return 5;
    }

    printMatrix(spec, result);
    const CampaignSummary &s = result.summary;
    std::printf("\n%zu jobs: %zu ok, %zu deadlock, %zu panic, "
                "%zu tso, %zu infra, %zu incomplete, %zu retried "
                "(%.1fs wall)\n",
                s.done, s.ok, s.deadlocks, s.panics,
                s.tsoViolations, s.infraFailures, s.incomplete,
                s.retried, result.wallSeconds);
    if (verify_equivalence)
        std::printf("equivalence: %zu checked, %zu mismatch%s\n",
                    s.equivalenceChecked, s.equivalenceMismatches,
                    s.equivalenceMismatches == 1 ? "" : "es");

    // TSO violations and infrastructure failures always fail the
    // campaign. Classified panics/deadlocks fail it too — unless
    // the fault invariants are the authority: under dup/drop mixes
    // those are the *expected* outcomes, and the invariant checker
    // decides whether each one is legitimate.
    int failures =
        int(s.tsoViolations + s.infraFailures +
            s.equivalenceMismatches);
    if (check_faults) {
        const auto broken = checkFaultInvariants(result);
        for (const std::string &b : broken)
            std::fprintf(stderr, "FAIL %s\n", b.c_str());
        failures += int(broken.size());
        std::printf("fault invariants: %s (%zu violation%s)\n",
                    broken.empty() ? "hold" : "VIOLATED",
                    broken.size(),
                    broken.size() == 1 ? "" : "s");
    } else {
        failures += int(s.panics);
        if (strict)
            failures += int(s.deadlocks + s.incomplete);
    }

    auto emit = [&](const std::string &path, auto writer) {
        if (path.empty())
            return;
        if (path == "-") {
            writer(std::cout);
        } else {
            std::ofstream f(path);
            if (!f) {
                std::fprintf(stderr, "cannot open %s\n",
                             path.c_str());
                ++failures;
                return;
            }
            writer(f);
        }
    };
    emit(json_path, [&](std::ostream &os) {
        writeCampaignJson(os, spec, result);
    });
    emit(csv_path, [&](std::ostream &os) {
        writeCampaignCsv(os, result);
    });

    return failures ? 1 : 0;
}

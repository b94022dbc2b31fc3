/**
 * @file
 * wbsim — command-line driver for the simulator.
 *
 * Run any benchmark profile or litmus on any machine configuration
 * and inspect results, without writing C++:
 *
 *   wbsim --workload ocean_ncp --mode ooo-wb --class NHM
 *   wbsim --workload table1 --mode ooo-unsafe --iters 3000
 *   wbsim --list
 *   wbsim --workload fft --mode in-order --dump-stats
 *   wbsim --workload radix --faults "seed=7,drop=0.001:2" \
 *         --crash-dump crash.json
 *
 * Exit codes (docs/RESILIENCE.md):
 *   0  completed, TSO-clean, no message leaks
 *   2  TSO violation detected
 *   3  deadlock / hang / message leak / cycle cap
 *   4  internal panic
 *   64 usage error, or a configuration the model refuses
 *      (SystemConfig::validate)
 */

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>

#include <unistd.h>

#include "obs/perfetto.hh"
#include "obs/timeline.hh"
#include "sim/log.hh"
#include "sim/parse.hh"
#include "snapshot/system_state.hh"
#include "system/crash_report.hh"
#include "system/report.hh"
#include "system/system.hh"
#include "trace/trace_recorder.hh"
#include "trace/trace_workload.hh"
#include "workload/benchmarks.hh"
#include "workload/litmus.hh"

namespace
{

using namespace wb;

void
usage()
{
    std::printf(
        "usage: wbsim [options]\n"
        "  --workload NAME   benchmark profile (see --list), a\n"
        "                    litmus (table1, table3, sb, sb-fence,\n"
        "                    lb, iriw, corr), or trace=FILE to\n"
        "                    replay a recorded .wbt trace\n"
        "                    (docs/TRACES.md)\n"
        "  --mode M          in-order | ooo-safe | ooo-wb |\n"
        "                    ooo-unsafe          (default ooo-wb)\n"
        "  --class C         SLM | NHM | HSW     (default SLM)\n"
        "  --cores N         number of cores     (default 16)\n"
        "  --shards N        run the mesh as N barrier-synced\n"
        "                    shards on N host threads; reports are\n"
        "                    byte-identical for every N (docs/\n"
        "                    PARALLEL.md). Incompatible with the\n"
        "                    fault/observability/checkpoint/trace\n"
        "                    layers        (default 1)\n"
        "  --scale F         profile scale       (default 0.5)\n"
        "  --iters N         litmus iterations   (default 2000)\n"
        "  --network K       mesh | ideal        (default mesh)\n"
        "  --jitter N        ideal network only: per-message\n"
        "                    jitter (default 10, at most 10000)\n"
        "  --seed N          builtin profile seed (default: the\n"
        "                    profile's own)\n"
        "  --no-checker      disable the TSO checker (faster)\n"
        "  --non-silent      non-silent shared evictions\n"
        "  --in-order-issue  stall-on-use (EV5/ECL-style) issue\n"
        "  --ldt N           lockdown table size (default 32)\n"
        "  --trace FLAGS     comma list: core,cache,dir,\n"
        "                    lockdown,checker\n"
        "  --faults SPEC     fault campaign, e.g.\n"
        "                    \"seed=7,delay=0.01:200,drop=0.001:2\"\n"
        "  --crash-dump FILE write a JSON crash report on any\n"
        "                    abnormal outcome (includes the flight-\n"
        "                    recorder tail when enabled)\n"
        "  --flight-recorder[=N]\n"
        "                    record the last N structured events\n"
        "                    (default 65536); adds obs.* latency\n"
        "                    histograms to stats\n"
        "  --trace-out FILE  write a Chrome/Perfetto trace-event\n"
        "                    JSON after the run (implies\n"
        "                    --flight-recorder)\n"
        "  --timeline FILE,PERIOD\n"
        "                    sample occupancy gauges every PERIOD\n"
        "                    cycles into FILE (.json => JSON,\n"
        "                    else CSV)\n"
        "  --metrics-stream FILE,PERIOD\n"
        "                    stream NDJSON metric snapshots every\n"
        "                    PERIOD cycles to FILE (or fd:N for an\n"
        "                    inherited descriptor); byte-\n"
        "                    deterministic for a given seed\n"
        "                    (docs/OBSERVABILITY.md)\n"
        "  --metrics-expo FILE\n"
        "                    write a Prometheus-style text\n"
        "                    exposition of all metrics after the\n"
        "                    run\n"
        "  --checkpoint-at TICK\n"
        "                    pause at cycle TICK, write a state\n"
        "                    snapshot, then continue to completion\n"
        "  --checkpoint FILE snapshot output path (default\n"
        "                    checkpoint.wbsnap)\n"
        "  --restore FILE    restore from a snapshot: rebuild the\n"
        "                    same config+workload, replay to the\n"
        "                    snapshot tick, byte-verify every state\n"
        "                    section, then continue (docs/\n"
        "                    CHECKPOINT.md). Corrupt or mismatched\n"
        "                    snapshots exit 2; replay divergence\n"
        "                    is a panic (exit 4)\n"
        "  --record-trace FILE\n"
        "                    record the run's committed instruction\n"
        "                    streams into a .wbt trace; replayable\n"
        "                    with --workload trace=FILE and\n"
        "                    inspectable with wbtrace\n"
        "  --dump-stats      print every counter after the run\n"
        "  --json FILE       write a JSON report (- for stdout)\n"
        "  --list, --list-workloads\n"
        "                    list available workloads and exit\n"
        "exit codes: 0 ok, 2 TSO violation / corrupt snapshot or\n"
        "            trace, 3 deadlock/hang, 4 internal panic,\n"
        "            64 usage error or a machine the model\n"
        "            refuses\n");
}

/**
 * Split and validate a "FILE,PERIOD" sink spec (--timeline,
 * --metrics-stream). Rejects a missing comma, an empty path, and a
 * zero/non-numeric/trailing-garbage period, printing the complaint
 * for a usage error (exit 64).
 */
bool
parseSinkSpec(const char *flag, const std::string &v,
              std::string &path, Tick &period)
{
    const auto comma = v.rfind(',');
    if (comma == std::string::npos || comma == 0) {
        std::fprintf(stderr, "%s needs FILE,PERIOD\n", flag);
        return false;
    }
    path = v.substr(0, comma);
    return parseFlag(flag, v.substr(comma + 1), 1, ~Tick(0), period);
}

/**
 * Probe an output sink for writability before the run so a bad path
 * is a clean usage error instead of a warning after minutes of
 * simulation. Paths are opened in append mode (created if missing,
 * existing bytes untouched); "fd:N" specs are checked with a dup
 * probe.
 */
bool
probeSinkWritable(const std::string &spec, std::string &err)
{
    if (spec.rfind("fd:", 0) == 0) {
        int fd = 0;
        if (!parseNumber(spec.substr(3), 0, INT_MAX, fd).empty()) {
            err = "bad descriptor in '" + spec + "'";
            return false;
        }
        const int d = ::dup(fd);
        if (d < 0) {
            err = spec + ": " + std::strerror(errno);
            return false;
        }
        ::close(d);
        return true;
    }
    std::FILE *f = std::fopen(spec.c_str(), "a");
    if (!f) {
        err = spec + ": " + std::strerror(errno);
        return false;
    }
    std::fclose(f);
    return true;
}

/** Add each flag of a comma list to @p mask; an unknown flag is a
 *  usage error (exit 64). */
bool
parseTraceFlags(const std::string &flags, unsigned &mask)
{
    std::size_t pos = 0;
    while (pos <= flags.size()) {
        std::size_t comma = flags.find(',', pos);
        if (comma == std::string::npos)
            comma = flags.size();
        const std::string f = flags.substr(pos, comma - pos);
        if (f == "core")
            mask |= unsigned(LogFlag::Core);
        else if (f == "cache")
            mask |= unsigned(LogFlag::Cache);
        else if (f == "dir")
            mask |= unsigned(LogFlag::Directory);
        else if (f == "lockdown")
            mask |= unsigned(LogFlag::Lockdown);
        else if (f == "checker")
            mask |= unsigned(LogFlag::Checker);
        else {
            std::fprintf(stderr, "--trace: unknown flag '%s'\n",
                         f.c_str());
            return false;
        }
        pos = comma + 1;
    }
    return true;
}

void
listWorkloads()
{
    std::printf("%-14s %-9s %s\n", "name", "source", "notes");
    for (const auto &n : splashNames())
        std::printf("%-14s %-9s %s\n", n.c_str(), "builtin",
                    "SPLASH-3 profile");
    for (const auto &n : parsecNames())
        std::printf("%-14s %-9s %s\n", n.c_str(), "builtin",
                    "PARSEC 3.0 profile");
    for (const LitmusName &l : litmusNames)
        std::printf("%-14s %-9s %s\n", l.name, "litmus", l.note);
    std::printf("%-14s %-9s %s\n", "trace=FILE", "trace",
                "replay a recorded .wbt trace (docs/TRACES.md)");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace wb;

    std::string workload = "ocean_ncp";
    CommitMode mode = CommitMode::OooWB;
    CoreClass cls = CoreClass::SLM;
    int cores = 16;
    bool cores_set = false;
    int shards = 1;
    WorkloadSizing sizing{.scale = 0.5};
    NetworkKind network = NetworkKind::Mesh;
    Tick jitter = 10;
    bool jitter_set = false;
    bool checker = true;
    bool silent_evictions = true;
    bool in_order_issue = false;
    int ldt = 32;
    bool dump_stats = false;
    std::string json_path;
    std::string faults_spec;
    std::string crash_dump;
    std::size_t flight_recorder = 0;
    unsigned trace_mask = 0;
    std::string trace_out;
    std::string timeline_path;
    Tick timeline_period = 0;
    std::string metrics_stream;
    Tick metrics_period = 0;
    std::string metrics_expo;
    Tick checkpoint_at = 0;
    std::string checkpoint_path = "checkpoint.wbsnap";
    std::string restore_path;
    std::string record_trace;

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
        if (a == "--workload")
            workload = next();
        else if (a == "--mode") {
            if (!parseCommitMode(next(), mode)) {
                usage();
                return 64;
            }
        } else if (a == "--class") {
            if (!parseCoreClass(next(), cls)) {
                usage();
                return 64;
            }
        } else if (a == "--cores") {
            ok = parseFlag("--cores", next(), 1, maxCores, cores);
            cores_set = true;
        } else if (a == "--scale") {
            ok = parseFlag("--scale", next(), minScale, maxScale,
                           sizing.scale);
            sizing.scaleGiven = true;
        } else if (a == "--iters") {
            ok = parseFlag("--iters", next(), 1, 100'000'000,
                           sizing.iterations);
            sizing.iterationsGiven = true;
        } else if (a == "--shards")
            ok = parseFlag("--shards", next(), 1, 4096, shards);
        else if (a == "--network") {
            const std::string n = next();
            if (!parseNetworkKind(n, network)) {
                std::fprintf(stderr,
                             "--network: '%s' is not mesh or "
                             "ideal\n",
                             n.c_str());
                return 64;
            }
        } else if (a == "--jitter") {
            // Bounded well below the watchdogs, so jitter alone can
            // never pass for a hang.
            ok = parseFlag("--jitter", next(), 0, 10'000, jitter);
            jitter_set = true;
        } else if (a == "--seed") {
            ok = parseFlag("--seed", next(), 0, ~std::uint64_t(0),
                           sizing.seed);
            sizing.seedGiven = true;
        } else if (a == "--no-checker")
            checker = false;
        else if (a == "--non-silent")
            silent_evictions = false;
        else if (a == "--in-order-issue")
            in_order_issue = true;
        else if (a == "--ldt")
            ok = parseFlag("--ldt", next(), 0, 1 << 20, ldt);
        else if (a == "--trace")
            ok = parseTraceFlags(next(), trace_mask);
        else if (a == "--faults")
            faults_spec = next();
        else if (a == "--crash-dump")
            crash_dump = next();
        else if (a == "--dump-stats")
            dump_stats = true;
        else if (a == "--flight-recorder")
            flight_recorder = 65536;
        else if (a.rfind("--flight-recorder=", 0) == 0)
            ok = parseFlag("--flight-recorder",
                           a.substr(std::strlen("--flight-recorder=")),
                           1, ~std::size_t(0), flight_recorder);
        else if (a == "--trace-out")
            trace_out = next();
        else if (a == "--timeline" ||
                 a.rfind("--timeline=", 0) == 0) {
            const std::string v =
                a == "--timeline"
                    ? next()
                    : a.substr(std::strlen("--timeline="));
            ok = parseSinkSpec("--timeline", v, timeline_path,
                               timeline_period);
        } else if (a == "--metrics-stream" ||
                   a.rfind("--metrics-stream=", 0) == 0) {
            const std::string v =
                a == "--metrics-stream"
                    ? next()
                    : a.substr(std::strlen("--metrics-stream="));
            ok = parseSinkSpec("--metrics-stream", v, metrics_stream,
                               metrics_period);
        } else if (a == "--metrics-expo")
            metrics_expo = next();
        else if (a == "--checkpoint-at" ||
                   a.rfind("--checkpoint-at=", 0) == 0) {
            const std::string v =
                a == "--checkpoint-at"
                    ? next()
                    : a.substr(std::strlen("--checkpoint-at="));
            ok = parseFlag("--checkpoint-at", v, 1, ~Tick(0),
                           checkpoint_at);
        } else if (a == "--checkpoint")
            checkpoint_path = next();
        else if (a == "--restore")
            restore_path = next();
        else if (a == "--record-trace")
            record_trace = next();
        else if (a == "--json")
            json_path = next();
        else if (a == "--list" || a == "--list-workloads") {
            listWorkloads();
            return 0;
        } else {
            usage();
            return a == "--help" || a == "-h" ? 0 : 64;
        }
        if (!ok)
            return 64;
    }

    // A flag the run would ignore is refused, not dropped: only the
    // ideal network jitters.
    if (jitter_set && network != NetworkKind::Ideal) {
        std::fprintf(stderr,
                     "--jitter: the network is %s; --jitter delays "
                     "the ideal network only\n",
                     networkKindName(network));
        return 64;
    }

    // Build the workload. Its provenance (source tag + generation
    // seed) rides along so --record-trace writes faithful metadata,
    // and a replayed trace re-records byte-identically.
    sizing.threads = cores;
    ResolvedWorkload named;
    try {
        // A trace is loaded and validated before anything else:
        // hostile, damaged or mismatched input is rejected up front
        // (exit 2), and no partially decoded workload ever reaches
        // the System.
        named = resolveWorkload(workload, sizing);
    } catch (const TraceError &e) {
        std::fprintf(stderr, "trace load failed: %s\n", e.what());
        if (!crash_dump.empty()) {
            std::ofstream dump(crash_dump);
            if (dump)
                writeLoadFailureReport(
                    dump,
                    dynamic_cast<const TraceMismatchError *>(&e)
                        ? "trace-mismatch"
                        : "trace-corrupt",
                    e.what());
        }
        return 2;
    }
    if (!named.error.empty()) {
        std::fprintf(stderr, "%s\n", named.error.c_str());
        return 64;
    }
    const Workload &wl = named.workload;
    const bool is_litmus = named.kind == WorkloadKind::Litmus;
    // Unless --cores says otherwise, a litmus runs on 4 cores, and a
    // builtin profile or a trace on one core per thread.
    if (!cores_set)
        cores = is_litmus ? 4 : int(wl.threads.size());

    // Snapshots and recorded traces are this tool's, and need one
    // queue and one commit stream; SystemConfig::validate refuses
    // the System's own layers at --shards > 1 (docs/PARALLEL.md).
    for (const auto &[set, flag] :
         {std::pair{checkpoint_at != 0, "--checkpoint-at"},
          {!restore_path.empty(), "--restore"},
          {!record_trace.empty(), "--record-trace"}}) {
        if (shards > 1 && set) {
            std::fprintf(stderr,
                         "%s is incompatible with --shards > 1 "
                         "(docs/PARALLEL.md)\n",
                         flag);
            return 64;
        }
    }

    SystemConfig cfg;
    cfg.numCores = cores;
    cfg.shards = shards;
    cfg.core = makeCoreConfig(cls);
    cfg.core.ldtSize = ldt;
    cfg.core.inOrderIssue = in_order_issue;
    cfg.network = network;
    cfg.ideal.jitter = jitter;
    cfg.checker = checker;
    cfg.mem.silentSharedEvictions = silent_evictions;
    if (network == NetworkKind::Mesh)
        cfg.mesh.fit(cores);
    cfg.setMode(mode);
    if (!faults_spec.empty()) {
        std::string err;
        if (!parseFaultSpec(faults_spec, cfg.faults, err)) {
            std::fprintf(stderr, "bad --faults spec: %s\n",
                         err.c_str());
            return 64;
        }
    }
    if (!trace_out.empty() && flight_recorder == 0)
        flight_recorder = 65536;
    cfg.obs.flightRecorder = flight_recorder;
    cfg.obs.timelinePeriod = timeline_period;
    cfg.obs.metricsPeriod = metrics_period;
    cfg.obs.trace = trace_mask;
    if (!metrics_expo.empty())
        cfg.obs.metrics = true; // registry without a stream

    // A machine the model cannot run is a usage error, refused
    // before anything is printed or opened.
    if (const std::string bad = cfg.validate(int(wl.threads.size()));
        !bad.empty()) {
        std::fprintf(stderr, "fatal: %s\n", bad.c_str());
        return 64;
    }

    // Reject unwritable sinks before burning simulation time.
    for (const std::string &sink :
         {timeline_path, metrics_stream, metrics_expo}) {
        std::string err;
        if (!sink.empty() && !probeSinkWritable(sink, err)) {
            std::fprintf(stderr, "cannot write %s\n", err.c_str());
            return 64;
        }
    }

    std::printf("workload: %s\nconfig:   %s\n", wl.name.c_str(),
                describeConfig(cfg).c_str());
    if (cfg.faults.enabled())
        std::printf("faults:   %s\n", cfg.faults.spec().c_str());

    System sys(cfg, wl);

    if (!metrics_stream.empty()) {
        std::string err;
        if (!sys.metricsStream()->openFile(metrics_stream, err)) {
            std::fprintf(stderr, "cannot write %s\n", err.c_str());
            return 64;
        }
    }

    const std::uint64_t wl_fp = workloadFingerprint(wl);

    // Hook every core's commit stage before the first cycle so the
    // recorded streams are complete.
    std::unique_ptr<TraceRecorder> trace_rec;
    if (!record_trace.empty()) {
        trace_rec = std::make_unique<TraceRecorder>(wl, named.source,
                                                    named.seed);
        trace_rec->attach(sys);
    }

    // Load and sanity-check the restore witness before the run so
    // hostile or mismatched input is rejected up front (exit 2).
    SnapshotFile restore_snap;
    if (!restore_path.empty()) {
        try {
            restore_snap = SnapshotFile::load(restore_path);
        } catch (const SnapshotError &e) {
            std::fprintf(stderr, "restore failed: %s\n", e.what());
            if (!crash_dump.empty()) {
                std::ofstream dump(crash_dump);
                if (dump)
                    writeCrashReport(dump, sys, "snapshot-corrupt",
                                     e.what());
            }
            return 2;
        }
        // Compare against the System's own config copy: the
        // constructor sets the derived bank count, and the snapshot
        // records the config with it.
        if (restore_snap.configFingerprint !=
                configFingerprint(sys.config()) ||
            restore_snap.workloadFingerprint != wl_fp) {
            const std::string detail =
                "snapshot was taken under a different config or "
                "workload (fingerprint mismatch) — pass the same "
                "command-line options as the checkpointing run";
            std::fprintf(stderr, "restore failed: %s\n",
                         detail.c_str());
            if (!crash_dump.empty()) {
                std::ofstream dump(crash_dump);
                if (dump)
                    writeCrashReport(dump, sys,
                                     "snapshot-mismatch", detail);
            }
            return 2;
        }
        if (checkpoint_at && checkpoint_at <= restore_snap.tick) {
            std::fprintf(stderr, "--checkpoint-at must be later "
                                 "than the restored tick\n");
            return 64;
        }
    }

    // Drive the run: optional verified replay to the restore tick,
    // optional pause to write a checkpoint, then to completion.
    // Runs inside runClassified() so replay divergence is
    // classified (and crash-dumped) like any other panic.
    auto drive = [&]() -> SimResults {
        bool live = true;
        if (!restore_path.empty()) {
            live = sys.runToCycle(restore_snap.tick);
            if (sys.cycle() != restore_snap.tick)
                panic("restore: replay ended at cycle %llu before "
                      "the snapshot tick %llu — the snapshot does "
                      "not describe this build/config",
                      static_cast<unsigned long long>(sys.cycle()),
                      static_cast<unsigned long long>(
                          restore_snap.tick));
            const auto bad =
                verifySnapshot(sys, wl_fp, restore_snap);
            if (!bad.empty()) {
                std::string list;
                for (const auto &s : bad) {
                    if (!list.empty())
                        list += ", ";
                    list += s;
                }
                panic("restore: replayed state diverges from the "
                      "snapshot witness at tick %llu in: %s",
                      static_cast<unsigned long long>(
                          restore_snap.tick),
                      list.c_str());
            }
            std::fprintf(stderr,
                         "restore: state verified at cycle %llu "
                         "(%zu sections), continuing\n",
                         static_cast<unsigned long long>(
                             sys.cycle()),
                         restore_snap.sections.size());
        }
        if (live && checkpoint_at > sys.cycle()) {
            live = sys.runToCycle(checkpoint_at);
            if (live) {
                SnapshotFile snap = buildSnapshot(sys, wl_fp);
                snap.save(checkpoint_path);
                std::fprintf(
                    stderr,
                    "checkpoint written to %s at cycle %llu "
                    "(%zu sections)\n",
                    checkpoint_path.c_str(),
                    static_cast<unsigned long long>(sys.cycle()),
                    snap.sections.size());
            } else {
                std::fprintf(
                    stderr,
                    "warning: run ended at cycle %llu before "
                    "--checkpoint-at %llu; no snapshot written\n",
                    static_cast<unsigned long long>(sys.cycle()),
                    static_cast<unsigned long long>(
                        checkpoint_at));
            }
        }
        if (live)
            sys.runToCycle(cfg.maxCycles);
        return sys.finishRun();
    };

    const ClassifiedRun cr = runClassified(sys, drive, crash_dump);
    const SimResults &r = cr.results;

    std::printf("\n%-24s %llu\n", "cycles",
                static_cast<unsigned long long>(r.cycles));
    std::printf("%-24s %llu\n", "instructions",
                static_cast<unsigned long long>(r.instructions));
    std::printf("%-24s %.3f\n", "ipc (whole machine)",
                r.cycles ? double(r.instructions) /
                               double(r.cycles)
                         : 0.0);
    std::printf("%-24s %llu / %llu / %llu\n",
                "loads/stores/atomics",
                static_cast<unsigned long long>(r.loads),
                static_cast<unsigned long long>(r.stores),
                static_cast<unsigned long long>(r.atomics));
    std::printf("%-24s %llu (%.3f per kilo-store)\n",
                "writersblock delays",
                static_cast<unsigned long long>(r.wbEntries),
                r.wbPerKiloStore());
    std::printf("%-24s %llu (%.3f per kilo-load)\n",
                "uncacheable reads",
                static_cast<unsigned long long>(
                    r.uncacheableReads),
                r.uncReadsPerKiloLoad());
    std::printf("%-24s %llu set / %llu seen / %llu exported\n",
                "lockdowns",
                static_cast<unsigned long long>(r.lockdownsSet),
                static_cast<unsigned long long>(r.lockdownsSeen),
                static_cast<unsigned long long>(r.ldtExports));
    std::printf("%-24s %llu branch / %llu dspec / %llu inv\n",
                "squashes",
                static_cast<unsigned long long>(r.squashBranch),
                static_cast<unsigned long long>(r.squashDspec),
                static_cast<unsigned long long>(r.squashInv));
    std::printf("%-24s rob %llu / lq %llu / sq %llu / other %llu\n",
                "stall cycles",
                static_cast<unsigned long long>(r.stallRob),
                static_cast<unsigned long long>(r.stallLq),
                static_cast<unsigned long long>(r.stallSq),
                static_cast<unsigned long long>(r.stallOther));
    std::printf("%-24s %llu msgs, %llu flit-hops\n", "network",
                static_cast<unsigned long long>(r.messages),
                static_cast<unsigned long long>(r.flitHops));
    if (cfg.faults.enabled())
        std::printf("%-24s %llu dropped / %llu duplicated / "
                    "%llu delayed\n",
                    "faults injected",
                    static_cast<unsigned long long>(
                        r.faultsDropped),
                    static_cast<unsigned long long>(
                        r.faultsDuplicated),
                    static_cast<unsigned long long>(
                        r.faultsDelayed));
    std::printf("%-24s %s%s%s\n", "status", cr.verdict.c_str(),
                cr.detail.empty() ? "" : ": ",
                cr.detail.c_str());
    if (checker)
        std::printf("%-24s %s (%zu violations)\n", "tso checker",
                    r.tsoViolations == 0 ? "clean" : "VIOLATED",
                    r.tsoViolations);

    if (is_litmus) {
        std::printf("\nlitmus outcomes {first,second}:\n");
        for (const auto &[pair, count] : countOutcomes(
                 [&sys](Addr a) { return sys.peekCoherent(a); },
                 sizing.iterations))
            std::printf("  {%llu,%llu} x %d%s\n",
                        static_cast<unsigned long long>(pair.first),
                        static_cast<unsigned long long>(
                            pair.second),
                        count,
                        illegalOutcome(named.litmus, pair)
                            ? "  <-- ILLEGAL"
                                                 : "");
    }

    if (dump_stats) {
        std::printf("\n-- all counters --\n");
        sys.stats().dump(std::cout);
    }
    if (!json_path.empty()) {
        if (json_path == "-") {
            writeJsonReport(std::cout, wl.name, cfg, r,
                            &sys.stats());
        } else {
            std::ofstream jf(json_path);
            if (!jf)
                std::fprintf(stderr, "cannot open %s\n",
                             json_path.c_str());
            else
                writeJsonReport(jf, wl.name, cfg, r, &sys.stats());
        }
    }
    if (trace_rec) {
        const TraceFile t = trace_rec->finalize();
        try {
            t.save(record_trace);
            std::printf("trace written to %s (%llu records, "
                        "%zu threads)\n",
                        record_trace.c_str(),
                        static_cast<unsigned long long>(
                            t.recordCount()),
                        t.threads.size());
        } catch (const TraceError &e) {
            std::fprintf(stderr, "could not write trace: %s\n",
                         e.what());
        }
    }
    if (!trace_out.empty()) {
        std::ofstream tf(trace_out);
        if (!tf) {
            std::fprintf(stderr, "cannot open %s\n",
                         trace_out.c_str());
        } else {
            writePerfettoTrace(tf, *sys.flightRecorder(),
                               cfg.numCores, cfg.numCores,
                               sys.timeline());
            std::printf("trace written to %s (open in "
                        "ui.perfetto.dev or chrome://tracing)\n",
                        trace_out.c_str());
        }
    }
    if (!timeline_path.empty()) {
        std::ofstream tl(timeline_path);
        if (!tl) {
            std::fprintf(stderr, "cannot open %s\n",
                         timeline_path.c_str());
        } else {
            const bool json =
                timeline_path.size() >= 5 &&
                timeline_path.compare(timeline_path.size() - 5, 5,
                                      ".json") == 0;
            if (json)
                sys.timeline()->writeJson(tl);
            else
                sys.timeline()->writeCsv(tl);
            std::printf("timeline written to %s (%zu samples)\n",
                        timeline_path.c_str(),
                        sys.timeline()->samples().size());
        }
    }
    if (!metrics_stream.empty())
        std::printf("metrics stream written to %s (%llu lines)\n",
                    metrics_stream.c_str(),
                    static_cast<unsigned long long>(
                        sys.metricsStream()->linesEmitted()));
    if (!metrics_expo.empty()) {
        std::ofstream ef(metrics_expo);
        if (!ef) {
            std::fprintf(stderr, "cannot open %s\n",
                         metrics_expo.c_str());
        } else {
            sys.metrics()->writeExposition(ef);
            std::printf("metrics exposition written to %s\n",
                        metrics_expo.c_str());
        }
    }
    if (!crash_dump.empty() && cr.outcome != RunOutcome::Ok) {
        if (cr.crashDumpWritten)
            std::fprintf(stderr, "crash report written to %s\n",
                         crash_dump.c_str());
        else
            std::fprintf(stderr, "warning: could not write crash "
                         "report to %s\n", crash_dump.c_str());
    }
    return cr.exitCode();
}

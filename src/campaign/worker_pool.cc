#include "campaign/worker_pool.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "campaign/fault_invariants.hh"
#include "campaign/job_codec.hh"
#include "campaign/job_journal.hh"
#include "sim/log.hh"
#include "sim/parse.hh"

namespace wb
{

// ---------------------------------------------------------------
// Spec rebuild (shared by --resume and the worker processes)
// ---------------------------------------------------------------

bool
buildCampaignSpec(const JournalHeader &desc, CampaignSpec &out,
                  std::string &err)
{
    if (desc.specKind == "builtin") {
        if (desc.specText == "fault") {
            out = faultCampaignSpec();
        } else {
            err = "unknown builtin campaign '" + desc.specText +
                  "' (available: fault)";
            return false;
        }
    } else if (desc.specKind == "manifest") {
        std::istringstream in(desc.specText);
        if (!parseCampaignSpec(in, out, err))
            return false;
    } else {
        err = "unknown spec kind '" + desc.specKind + "'";
        return false;
    }
    if (desc.seedsOverride > 0)
        out.seeds = int(desc.seedsOverride);
    if (desc.recovery || desc.verifyEquivalence)
        out.machine.recovery.enabled = true;
    err = out.validate();
    if (!err.empty()) {
        err = "campaign spec: " + err;
        return false;
    }
    return true;
}

// ---------------------------------------------------------------
// Chaos hook (test-only worker fault injection)
// ---------------------------------------------------------------

bool
parseChaosSpec(const std::string &spec, std::string &mode,
               std::size_t &index, bool &once)
{
    std::string s = spec;
    once = false;
    if (s.rfind("once:", 0) == 0) {
        once = true;
        s = s.substr(5);
    }
    const std::size_t at = s.find('@');
    if (at == std::string::npos || at == 0 || at + 1 >= s.size())
        return false;
    mode = s.substr(0, at);
    if (mode != "segv" && mode != "abort" && mode != "exit" &&
        mode != "hang" && mode != "mute" && mode != "oom")
        return false;
    const std::string idx = s.substr(at + 1);
    return parseNumber(idx, 0, ~std::size_t(0), index).empty();
}

namespace
{

using SteadyClock = std::chrono::steady_clock;

double
secondsSince(SteadyClock::time_point t)
{
    return std::chrono::duration<double>(SteadyClock::now() - t)
        .count();
}

/** Shared between the worker's job loop and its detached heartbeat
 *  thread; heap-owned so the thread can outlive campaignWorkerMain's
 *  stack frame during process teardown. */
struct HeartbeatState
{
    std::mutex writeMu; //!< one frame at a time on the result pipe
    std::atomic<std::uint64_t> job{~0ull};
    std::atomic<bool> mute{false};
    double period = 1.0;
    int fd = 4;
};

/** Deterministic worker-fault hook: "[once:]MODE@JOBINDEX". The
 *  "once:" prefix fires only the first time any worker of this
 *  campaign reaches the job (an O_EXCL marker file arbitrates), so
 *  tests can exercise the respawn-then-succeed path. */
void
maybeChaos(std::string spec, std::size_t job,
           const std::string &out_dir, HeartbeatState &hb)
{
    if (spec.empty())
        if (const char *env = std::getenv("WB_CHAOS_WORKER"))
            spec = env;
    if (spec.empty())
        return;
    std::string mode;
    std::size_t target = 0;
    bool once = false;
    if (!parseChaosSpec(spec, mode, target, once) || target != job)
        return;
    if (once) {
        const std::string marker =
            (out_dir.empty() ? std::string(".") : out_dir) +
            "/chaos-fired-" + std::to_string(job);
        const int fd = ::open(marker.c_str(),
                              O_CREAT | O_EXCL | O_WRONLY, 0644);
        if (fd < 0)
            return; // already fired: run the job normally
        ::close(fd);
    }
    if (mode == "segv") {
        ::raise(SIGSEGV);
        std::_Exit(139); // sanitizer runtimes may survive raise()
    }
    if (mode == "abort")
        std::abort();
    if (mode == "exit")
        std::_Exit(9);
    if (mode == "hang" || mode == "mute") {
        if (mode == "mute")
            hb.mute.store(true, std::memory_order_relaxed);
        for (;;)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(50));
    }
    if (mode == "oom") {
        // Allocate until RLIMIT_AS refuses (bad_alloc propagates to
        // the job loop, which records "job-oom"). Bounded so a
        // mis-configured run without a memory limit gives up and
        // runs the job instead of exhausting the host.
        std::vector<std::unique_ptr<char[]>> hog;
        for (int k = 0; k < 64; ++k) {
            hog.emplace_back(new char[64u << 20]);
            std::memset(hog.back().get(), 0x5a, 64u << 20);
        }
    }
}

// ---------------------------------------------------------------
// Worker process
// ---------------------------------------------------------------

std::atomic<bool> g_workerStop{false};

void
onWorkerStopSignal(int)
{
    g_workerStop.store(true, std::memory_order_relaxed);
}

/** Soft RLIMIT_CPU = CPU already used + the job deadline + slack,
 *  re-armed before every job. A worker that spins with signals
 *  blocked still dies (SIGXCPU), which the supervisor classifies as
 *  a job-timeout. */
void
armCpuLimit(double job_timeout)
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return;
    const rlim_t used =
        rlim_t(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec);
    struct rlimit rl;
    if (getrlimit(RLIMIT_CPU, &rl) != 0)
        return;
    rlim_t want = used + rlim_t(job_timeout) + 2;
    if (rl.rlim_max != RLIM_INFINITY && want > rl.rlim_max)
        want = rl.rlim_max;
    rl.rlim_cur = want;
    setrlimit(RLIMIT_CPU, &rl);
}

JobResult
oomResult(const JobSpec &job, std::uint64_t mem_limit_mb)
{
    JobResult r;
    r.spec = job;
    r.outcome = RunOutcome::Panic;
    r.verdict = "job-oom";
    r.detail = "allocation failed under RLIMIT_AS (" +
               std::to_string(mem_limit_mb) + " MiB)";
    r.infraFailure = true;
    std::ostringstream os;
    writeLoadFailureReport(os, r.verdict, r.detail);
    r.crashJson = os.str();
    return r;
}

} // namespace

int
campaignWorkerMain()
{
    // Cooperative drain: SIGINT/SIGTERM set a flag; no SA_RESTART so
    // the blocking frame read wakes with EINTR and checks it. The
    // supervisor forwards its own drain signal, so both layers exit
    // through the same resumable path (exit 5).
    struct sigaction sa = {};
    sa.sa_handler = onWorkerStopSignal;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
    struct sigaction ign = {};
    ign.sa_handler = SIG_IGN;
    sigaction(SIGPIPE, &ign, nullptr);

    const int in_fd = 3;
    FrameReader reader;
    auto readFrame = [&](WireFrame &f) -> bool {
        for (;;) {
            try {
                if (reader.next(f))
                    return true;
            } catch (const ByteCodecError &) {
                return false; // corrupt command stream: give up
            }
            unsigned char buf[65536];
            const ssize_t n = ::read(in_fd, buf, sizeof(buf));
            if (n > 0) {
                reader.append(buf, std::size_t(n));
                continue;
            }
            if (n < 0 && errno == EINTR) {
                if (g_workerStop.load(std::memory_order_relaxed))
                    return false;
                continue;
            }
            return false; // EOF: supervisor shut us down or died
        }
    };

    WireFrame f;
    if (!readFrame(f) || f.type != WireType::Init)
        return 3;
    WorkerInit init;
    try {
        ByteReader r(f.payload);
        init = decodeWorkerInit(r);
    } catch (const ByteCodecError &) {
        return 3;
    }

    CampaignSpec spec;
    std::string err;
    if (!buildCampaignSpec(init.spec, spec, err)) {
        std::fprintf(stderr, "wbcampaign worker: %s\n",
                     err.c_str());
        return 3;
    }
    const std::vector<JobSpec> jobs = spec.expand();
    if (jobs.size() != init.spec.jobCount ||
        jobListFingerprint(jobs) != init.spec.specFingerprint) {
        std::fprintf(stderr,
                     "wbcampaign worker: rebuilt job list does not "
                     "match the supervisor's\n");
        return 3;
    }

    if (init.memLimitMb > 0) {
        struct rlimit rl;
        if (getrlimit(RLIMIT_AS, &rl) == 0) {
            rlim_t want = rlim_t(init.memLimitMb) << 20;
            if (rl.rlim_max != RLIM_INFINITY && want > rl.rlim_max)
                want = rl.rlim_max;
            rl.rlim_cur = want;
            setrlimit(RLIMIT_AS, &rl);
        }
    }

    auto hb = std::make_shared<HeartbeatState>();
    hb->period =
        init.heartbeatSeconds > 0 ? init.heartbeatSeconds : 1.0;
    auto send = [&hb](WireType t, const ByteWriter &bw) -> bool {
        std::lock_guard<std::mutex> lk(hb->writeMu);
        return writeFrame(hb->fd, t, bw);
    };

    // Telemetry: snapshot lines leave as Telemetry frames; the
    // supervisor owns the sidecar files. Serialised through the
    // same mutex as heartbeats, so frames never interleave.
    TelemetryHooks tele;
    const TelemetryHooks *telep = nullptr;
    if (init.metricsPeriod > 0) {
        tele.period = Tick(init.metricsPeriod);
        tele.dir = init.telemetryDir;
        tele.emit = [&send](std::size_t job,
                            const MetricsSummary &sum,
                            const std::string &line) {
            ByteWriter bw;
            encodeTelemetryFrame(bw, {job, sum, line});
            send(WireType::Telemetry, bw);
        };
        telep = &tele;
    }

    {
        ByteWriter hello;
        hello.u32(wireProtocolVersion);
        hello.u64(std::uint64_t(::getpid()));
        if (!send(WireType::Hello, hello))
            return 3;
    }

    // Heartbeat thread: proves the process still schedules while a
    // long job runs. Detached on purpose — it shares only the
    // heap-owned state and dies with the process.
    std::thread([hb] {
        for (;;) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(hb->period));
            if (hb->mute.load(std::memory_order_relaxed))
                continue;
            ByteWriter bw;
            bw.u64(hb->job.load(std::memory_order_relaxed));
            std::lock_guard<std::mutex> lk(hb->writeMu);
            if (!writeFrame(hb->fd, WireType::Heartbeat, bw))
                return; // supervisor is gone
        }
    }).detach();

    for (;;) {
        if (!readFrame(f))
            break;
        if (f.type == WireType::Shutdown)
            break;
        if (f.type != WireType::RunJob)
            continue;
        std::size_t i = 0;
        try {
            ByteReader r(f.payload);
            i = std::size_t(r.u64());
        } catch (const ByteCodecError &) {
            return 3;
        }
        if (i >= jobs.size())
            return 3;

        if (init.jobTimeoutSeconds > 0)
            armCpuLimit(init.jobTimeoutSeconds);
        hb->job.store(i, std::memory_order_relaxed);

        JobResult res;
        try {
            maybeChaos(init.chaos, i, init.outDir, *hb);
            res = runCampaignJob(spec, jobs[i], init.outDir,
                                 init.spec.verifyEquivalence,
                                 telep);
        } catch (const std::bad_alloc &) {
            res = oomResult(jobs[i], init.memLimitMb);
        }
        hb->job.store(~0ull, std::memory_order_relaxed);

        ByteWriter bw;
        encodeJobResult(bw, res);
        if (!send(WireType::JobDone, bw))
            return 3;
        if (g_workerStop.load(std::memory_order_relaxed))
            return 5;
    }
    return g_workerStop.load(std::memory_order_relaxed) ? 5 : 0;
}

// ---------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------

namespace
{

struct Worker
{
    pid_t pid = -1;
    int cmdFd = -1;
    int resFd = -1;
    FrameReader reader;
    bool alive = false;
    bool helloSeen = false;
    bool busy = false;
    std::size_t job = 0;
    std::string key; //!< cache key of the in-flight job
    SteadyClock::time_point jobStart;
    SteadyClock::time_point lastBeat;
    /** Last Telemetry frame (telemetry mode only); a busy worker
     *  whose simulation stops snapshotting is wedged even when its
     *  wall-clock heartbeat thread still beats. */
    SteadyClock::time_point lastTelemetry;

    enum class Kill
    {
        None,
        Deadline,  //!< per-job wall-clock deadline exceeded
        Heartbeat, //!< no heartbeat within the grace window
        Stalled,   //!< busy but no telemetry within the grace window
    };
    Kill kill = Kill::None;

    int respawns = 0; //!< respawns scheduled for this slot
    bool pendingRespawn = false;
    SteadyClock::time_point respawnAt;
    bool retired = false; //!< no further respawns
};

} // namespace

WorkerPoolStats
runWorkerPool(const std::vector<JobSpec> &jobs,
              const std::vector<char> &done,
              const CampaignRunner::Options &opts, int nworkers,
              std::atomic<int> &busy, const PoolCacheFn &tryCache,
              const PoolCommitFn &commit,
              const TelemetryHooks *telemetry)
{
    WorkerPoolStats st;
    const ProcessPoolOptions &P = opts.process;

    if (opts.journalHeader.specKind != "builtin" &&
        opts.journalHeader.specKind != "manifest")
        fatal("process backend needs a builtin or manifest spec "
              "description (Options::journalHeader)");

    std::deque<std::size_t> pending;
    for (std::size_t i = 0; i < jobs.size(); ++i)
        if (!done[i])
            pending.push_back(i);
    if (pending.empty())
        return st;

    auto stopRequested = [&opts] {
        return opts.stopFlag &&
               opts.stopFlag->load(std::memory_order_relaxed);
    };
    if (stopRequested())
        return st;

    // The Init frame: the same spec description --resume journals
    // carry, so workers rebuild the supervisor's exact job list
    // (and refuse to run if they cannot).
    WorkerInit init;
    init.spec = opts.journalHeader;
    init.spec.specFingerprint = jobListFingerprint(jobs);
    init.spec.jobCount = jobs.size();
    init.spec.verifyEquivalence = opts.verifyEquivalence;
    init.outDir = opts.outDir;
    init.chaos = P.chaos;
    init.memLimitMb = P.jobMemLimitMb;
    init.jobTimeoutSeconds = P.jobTimeoutSeconds;
    init.heartbeatSeconds = P.heartbeatSeconds;
    if (telemetry && telemetry->enabled()) {
        init.metricsPeriod = std::uint64_t(telemetry->period);
        init.telemetryDir = telemetry->dir;
    }
    ByteWriter initw;
    encodeWorkerInit(initw, init);
    const std::vector<unsigned char> init_bytes = initw.take();

    const int per_slot = std::max(0, P.maxRespawnsPerWorker);
    const int poison = std::max(1, P.poisonThreshold);

    // The supervisor must see EPIPE, not die, when it writes to a
    // worker that just crashed.
    struct sigaction ign = {};
    ign.sa_handler = SIG_IGN;
    sigaction(SIGPIPE, &ign, nullptr);

    const int nslots = int(std::min<std::size_t>(
        std::size_t(nworkers), pending.size()));
    std::vector<Worker> w(static_cast<std::size_t>(nslots));
    std::map<std::size_t, int> consec_kills;
    bool degraded = false;
    bool draining = false;

    auto aliveCount = [&w] {
        int n = 0;
        for (const Worker &wk : w)
            n += wk.alive ? 1 : 0;
        return n;
    };
    auto anyBusy = [&w] {
        for (const Worker &wk : w)
            if (wk.alive && wk.busy)
                return true;
        return false;
    };
    auto respawnsScheduled = [&w] {
        for (const Worker &wk : w)
            if (!wk.alive && wk.pendingRespawn)
                return true;
        return false;
    };

    auto spawn = [&](Worker &wk) -> bool {
        int cmd[2] = {-1, -1};
        int res[2] = {-1, -1};
        if (::pipe(cmd) != 0)
            return false;
        if (::pipe(res) != 0) {
            ::close(cmd[0]);
            ::close(cmd[1]);
            return false;
        }
        for (int fd : {cmd[0], cmd[1], res[0], res[1]})
            fcntl(fd, F_SETFD, FD_CLOEXEC);
        const pid_t pid = ::fork();
        if (pid < 0) {
            for (int fd : {cmd[0], cmd[1], res[0], res[1]})
                ::close(fd);
            return false;
        }
        if (pid == 0) {
            // Child: re-exec this binary as `--worker`, command pipe
            // on fd 3, result pipe on fd 4. F_DUPFD clears CLOEXEC
            // and dodges collisions with the target fds; stray
            // stdout is rerouted to stderr so it cannot pollute the
            // supervisor's report stream.
            const int in = fcntl(cmd[0], F_DUPFD, 10);
            const int out = fcntl(res[1], F_DUPFD, 10);
            ::dup2(in, 3);
            ::dup2(out, 4);
            ::dup2(2, 1);
            signal(SIGINT, SIG_DFL);
            signal(SIGTERM, SIG_DFL);
            ::execl("/proc/self/exe", "/proc/self/exe", "--worker",
                    static_cast<char *>(nullptr));
            _exit(127);
        }
        ::close(cmd[0]);
        ::close(res[1]);
        fcntl(res[0], F_SETFL, O_NONBLOCK);
        wk.pid = pid;
        wk.cmdFd = cmd[1];
        wk.resFd = res[0];
        wk.reader.reset();
        wk.alive = true;
        wk.helloSeen = false;
        wk.busy = false;
        wk.kill = Worker::Kill::None;
        wk.pendingRespawn = false;
        wk.lastBeat = SteadyClock::now();
        writeFrame(wk.cmdFd, WireType::Init, init_bytes.data(),
                   init_bytes.size());
        return true;
    };

    auto quarantine = [&](std::size_t i, RunOutcome outcome,
                          const std::string &verdict,
                          const std::string &detail, int kills) {
        JobResult r;
        r.spec = jobs[i];
        r.outcome = outcome;
        r.verdict = verdict;
        r.detail = detail;
        r.infraFailure = true; // host-specific: never cached
        r.attempts = kills;
        std::ostringstream os;
        writeLoadFailureReport(os, verdict, detail);
        r.crashJson = os.str();
        writeCrashSidecar(r, opts.outDir);
        commit(i, std::move(r), "", false);
        ++st.quarantined;
    };

    auto retireOrRespawn = [&](Worker &wk) {
        if (wk.retired)
            return;
        if (draining || (pending.empty() && !anyBusy())) {
            wk.retired = true; // campaign is over; not a degradation
            return;
        }
        if (wk.respawns < per_slot) {
            double delay = P.backoffBaseSeconds;
            for (int k = 0; k < wk.respawns && k < 16; ++k)
                delay *= 2;
            delay = std::min(delay, 5.0);
            ++wk.respawns;
            wk.pendingRespawn = true;
            wk.respawnAt =
                SteadyClock::now() +
                std::chrono::duration_cast<SteadyClock::duration>(
                    std::chrono::duration<double>(delay));
        } else {
            wk.retired = true;
            if (!degraded) {
                // Respawn budget exhausted with work remaining:
                // from here the campaign drains on whatever
                // capacity survives.
                degraded = true;
                ++st.degradedTransitions;
            }
        }
    };

    auto handleDeath = [&](Worker &wk) {
        if (!wk.alive)
            return;
        ::close(wk.cmdFd);
        ::close(wk.resFd);
        wk.cmdFd = wk.resFd = -1;
        wk.alive = false;
        int wst = 0;
        while (::waitpid(wk.pid, &wst, 0) < 0 && errno == EINTR) {
        }
        const bool signaled = WIFSIGNALED(wst);
        const int sig = signaled ? WTERMSIG(wst) : 0;
        const int code = WIFEXITED(wst) ? WEXITSTATUS(wst) : -1;
        const bool clean =
            WIFEXITED(wst) && (code == 0 || code == 5);

        if (wk.busy) {
            const std::size_t i = wk.job;
            wk.busy = false;
            busy.fetch_sub(1, std::memory_order_relaxed);

            RunOutcome outcome = RunOutcome::Panic;
            std::string verdict = "worker-crash";
            std::string detail;
            if (wk.kill == Worker::Kill::Deadline) {
                outcome = RunOutcome::Deadlock;
                verdict = "job-timeout";
                char buf[96];
                std::snprintf(buf, sizeof(buf),
                              "supervisor killed the worker: "
                              "per-job deadline (%gs) exceeded",
                              P.jobTimeoutSeconds);
                detail = buf;
                ++st.jobTimeouts;
            } else if (wk.kill == Worker::Kill::Heartbeat) {
                outcome = RunOutcome::Deadlock;
                verdict = "job-timeout";
                char buf[96];
                std::snprintf(buf, sizeof(buf),
                              "supervisor killed the worker: no "
                              "heartbeat for %gs",
                              P.heartbeatGraceSeconds);
                detail = buf;
                ++st.jobTimeouts;
            } else if (wk.kill == Worker::Kill::Stalled) {
                outcome = RunOutcome::Deadlock;
                verdict = "job-timeout";
                char buf[112];
                std::snprintf(buf, sizeof(buf),
                              "supervisor killed the worker: no "
                              "telemetry snapshot for %gs "
                              "(simulation stalled)",
                              P.heartbeatGraceSeconds);
                detail = buf;
                ++st.jobTimeouts;
            } else if (signaled && sig == SIGXCPU) {
                outcome = RunOutcome::Deadlock;
                verdict = "job-timeout";
                detail = "worker exceeded RLIMIT_CPU (SIGXCPU)";
                ++st.jobTimeouts;
            } else if (signaled) {
                detail = "worker killed by signal " +
                         std::to_string(sig);
                ++st.workerCrashes;
            } else {
                detail = "worker exited with status " +
                         std::to_string(code) +
                         " while a job was in flight";
                ++st.workerCrashes;
            }

            if (!wk.helloSeen) {
                // Died before initialising: says nothing about the
                // job, so no poison credit.
                pending.push_front(i);
            } else {
                const int kills = ++consec_kills[i];
                if (kills >= poison)
                    quarantine(i, outcome, verdict,
                               detail + " (" +
                                   std::to_string(kills) +
                                   " consecutive worker deaths "
                                   "on this job)",
                               kills);
                else
                    pending.push_front(i);
            }
        } else if (!clean && !draining) {
            ++st.workerCrashes;
        }
        retireOrRespawn(wk);
    };

    auto processFrames = [&](Worker &wk) {
        WireFrame fr;
        try {
            while (wk.alive && wk.reader.next(fr)) {
                switch (fr.type) {
                case WireType::Hello: {
                    ByteReader r(fr.payload);
                    if (r.u32() != wireProtocolVersion) {
                        // A stale binary answered the exec; its
                        // death is handled like any other crash.
                        ::kill(wk.pid, SIGKILL);
                        return;
                    }
                    wk.helloSeen = true;
                    wk.lastBeat = SteadyClock::now();
                    break;
                }
                case WireType::Heartbeat:
                    wk.lastBeat = SteadyClock::now();
                    break;
                case WireType::Telemetry: {
                    ByteReader r(fr.payload);
                    const TelemetryFrame t = decodeTelemetryFrame(r);
                    wk.lastBeat = SteadyClock::now();
                    wk.lastTelemetry = wk.lastBeat;
                    if (telemetry && telemetry->emit)
                        telemetry->emit(std::size_t(t.job), t.sum,
                                        t.line);
                    break;
                }
                case WireType::JobDone: {
                    ByteReader r(fr.payload);
                    JobResult res = decodeJobResult(r);
                    wk.lastBeat = SteadyClock::now();
                    if (!wk.busy || res.spec.index != wk.job) {
                        ::kill(wk.pid, SIGKILL); // protocol desync
                        return;
                    }
                    const std::size_t i = wk.job;
                    wk.busy = false;
                    busy.fetch_sub(1, std::memory_order_relaxed);
                    consec_kills.erase(i);
                    if (res.verdict == "job-oom")
                        ++st.jobOoms;
                    commit(i, std::move(res), wk.key, false);
                    break;
                }
                default:
                    break;
                }
            }
        } catch (const ByteCodecError &) {
            // Corrupt result stream (worker died mid-frame, or
            // something else wrote to the pipe): crash the worker.
            wk.reader.reset();
            ::kill(wk.pid, SIGKILL);
        }
    };

    auto drainWorkerFd = [&](Worker &wk) {
        unsigned char buf[65536];
        for (;;) {
            const ssize_t n = ::read(wk.resFd, buf, sizeof(buf));
            if (n > 0) {
                wk.reader.append(buf, std::size_t(n));
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            if (n < 0 &&
                (errno == EAGAIN || errno == EWOULDBLOCK)) {
                processFrames(wk);
                return;
            }
            // EOF or a hard error: parse what arrived (a JobDone
            // sent just before exiting must not be lost), then reap.
            processFrames(wk);
            handleDeath(wk);
            return;
        }
    };

    auto assignJobs = [&] {
        if (draining)
            return;
        for (Worker &wk : w) {
            if (!wk.alive || !wk.helloSeen || wk.busy ||
                wk.kill != Worker::Kill::None)
                continue;
            while (!pending.empty()) {
                const std::size_t i = pending.front();
                if (done[i]) {
                    pending.pop_front();
                    continue;
                }
                JobResult cached;
                std::string key;
                if (tryCache(i, cached, key)) {
                    pending.pop_front();
                    commit(i, std::move(cached), key, true);
                    continue;
                }
                pending.pop_front();
                wk.busy = true;
                wk.job = i;
                wk.key = key;
                wk.jobStart = SteadyClock::now();
                wk.lastTelemetry = wk.jobStart;
                busy.fetch_add(1, std::memory_order_relaxed);
                ByteWriter bw;
                bw.u64(i);
                if (!writeFrame(wk.cmdFd, WireType::RunJob, bw))
                    handleDeath(wk); // died idle; job is requeued
                break;
            }
        }
    };

    for (Worker &wk : w)
        if (!spawn(wk))
            retireOrRespawn(wk);

    for (;;) {
        if (stopRequested() && !draining) {
            // Forward the drain: workers finish their in-flight
            // job, report it, and exit through the cooperative
            // exit-5 path; nothing new is assigned.
            draining = true;
            for (Worker &wk : w) {
                wk.pendingRespawn = false;
                if (wk.alive)
                    ::kill(wk.pid, SIGTERM);
            }
        }

        if (!draining)
            for (Worker &wk : w)
                if (!wk.alive && wk.pendingRespawn &&
                    SteadyClock::now() >= wk.respawnAt) {
                    wk.pendingRespawn = false;
                    if (spawn(wk))
                        ++st.workerRestarts;
                    else
                        retireOrRespawn(wk);
                }

        assignJobs();

        if (pending.empty() && !anyBusy())
            break;
        if (draining && !anyBusy())
            break;

        // Graceful degradation, last resort: every worker slot is
        // gone and none will return, but jobs remain. Hand them back
        // to the runner, which drains them on the thread backend,
        // rather than abandon a nearly-finished campaign.
        if (!draining && aliveCount() == 0 &&
            !respawnsScheduled()) {
            st.degraded = true;
            ++st.degradedTransitions;
            break;
        }

        std::vector<pollfd> fds;
        std::vector<Worker *> owners;
        for (Worker &wk : w)
            if (wk.alive) {
                fds.push_back({wk.resFd, POLLIN, 0});
                owners.push_back(&wk);
            }
        if (P.wakeFd >= 0)
            fds.push_back({P.wakeFd, POLLIN, 0});
        // Sleep until the nearest supervision deadline instead of a
        // fixed 200 ms: a sub-second job deadline is enforced on
        // time, and a quiet pool with lazy deadlines dozes a full
        // second per wake (worker results and wakeFd writes always
        // interrupt the poll regardless of the timeout).
        double nearest = 1.0;
        const auto nowTp = SteadyClock::now();
        auto consider = [&nearest](double remain) {
            if (remain < nearest)
                nearest = remain;
        };
        for (Worker &wk : w) {
            if (wk.alive && wk.kill == Worker::Kill::None) {
                if (wk.busy && P.jobTimeoutSeconds > 0)
                    consider(P.jobTimeoutSeconds -
                             secondsSince(wk.jobStart));
                if (P.heartbeatGraceSeconds > 0)
                    consider(P.heartbeatGraceSeconds -
                             secondsSince(wk.lastBeat));
                if (wk.busy && telemetry && telemetry->enabled() &&
                    P.heartbeatGraceSeconds > 0)
                    consider(P.heartbeatGraceSeconds -
                             secondsSince(wk.lastTelemetry));
            }
            if (!wk.alive && wk.pendingRespawn)
                consider(std::chrono::duration<double>(
                             wk.respawnAt - nowTp)
                             .count());
        }
        const int timeoutMs = std::clamp(
            int(nearest * 1000.0) + 1, 1, 1000);
        const int pr =
            ::poll(fds.data(), nfds_t(fds.size()), timeoutMs);
        if (pr < 0 && errno != EINTR)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        if (pr > 0) {
            if (P.wakeFd >= 0 &&
                (fds.back().revents & POLLIN) != 0) {
                unsigned char sink[64];
                while (::read(P.wakeFd, sink, sizeof(sink)) > 0) {
                }
            }
            for (std::size_t k = 0; k < owners.size(); ++k)
                if ((fds[k].revents &
                     (POLLIN | POLLHUP | POLLERR)) != 0)
                    drainWorkerFd(*owners[k]);
        }

        // Supervision deadlines. SIGKILL, not SIGTERM: a wedged
        // job will not cooperate, and the kill reason is already
        // recorded for classification.
        for (Worker &wk : w) {
            if (!wk.alive || wk.kill != Worker::Kill::None)
                continue;
            if (wk.busy && P.jobTimeoutSeconds > 0 &&
                secondsSince(wk.jobStart) > P.jobTimeoutSeconds) {
                wk.kill = Worker::Kill::Deadline;
                ::kill(wk.pid, SIGKILL);
            } else if (P.heartbeatGraceSeconds > 0 &&
                       secondsSince(wk.lastBeat) >
                           P.heartbeatGraceSeconds) {
                wk.kill = Worker::Kill::Heartbeat;
                ::kill(wk.pid, SIGKILL);
            } else if (wk.busy && telemetry &&
                       telemetry->enabled() &&
                       P.heartbeatGraceSeconds > 0 &&
                       secondsSince(wk.lastTelemetry) >
                           P.heartbeatGraceSeconds) {
                // The wall-clock heartbeat still beats, but the
                // simulation stopped producing snapshots: the job
                // is wedged in a way only sim progress reveals.
                // (Pick the snapshot period well below
                // grace x sim-speed, or slow jobs will be killed.)
                wk.kill = Worker::Kill::Stalled;
                ::kill(wk.pid, SIGKILL);
            }
        }
    }

    // Shutdown: EOF on the command pipe tells an idle worker to
    // exit cleanly; give stragglers a bounded grace, then kill.
    for (Worker &wk : w)
        if (wk.alive && wk.cmdFd >= 0) {
            ::close(wk.cmdFd);
            wk.cmdFd = -1;
        }
    const auto kill_at =
        SteadyClock::now() + std::chrono::seconds(5);
    for (Worker &wk : w) {
        if (!wk.alive)
            continue;
        int wst = 0;
        for (;;) {
            const pid_t r = ::waitpid(wk.pid, &wst, WNOHANG);
            if (r == wk.pid || (r < 0 && errno != EINTR))
                break;
            if (r < 0)
                continue;
            if (SteadyClock::now() >= kill_at) {
                ::kill(wk.pid, SIGKILL);
                while (::waitpid(wk.pid, &wst, 0) < 0 &&
                       errno == EINTR) {
                }
                break;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        }
        if (wk.resFd >= 0) {
            ::close(wk.resFd);
            wk.resFd = -1;
        }
        wk.alive = false;
    }

    return st;
}

} // namespace wb

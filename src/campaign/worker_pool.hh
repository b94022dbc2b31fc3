/**
 * @file
 * Process-isolated campaign execution: supervisor + worker pool.
 *
 * The thread backend (campaign_runner.cc) gives per-job *crash
 * classification*, but a real segfault, OOM kill, or runaway loop in
 * any worker still takes the whole campaign with it — only the
 * write-ahead journal saves the finished work. This backend moves
 * job execution into separate processes so the campaign survives
 * anything a job can do:
 *
 *   - The supervisor fork/execs N workers (`wbcampaign --worker`,
 *     command pipe on fd 3, result pipe on fd 4) and drives them
 *     from a single poll() loop. Jobs and JobResults travel as
 *     checksummed frames over the pipes (job_codec.hh) using the
 *     same bit-exact codec as the journal and the result cache.
 *   - A worker that dies is reaped and classified from its wait
 *     status: killed by the per-job deadline or heartbeat loss ->
 *     "job-timeout" (exit taxonomy 3, like a deadlock); killed by a
 *     signal or a dirty exit -> "worker-crash" (taxonomy 4, like a
 *     panic). An allocation refused by RLIMIT_AS surfaces as
 *     bad_alloc inside the worker and is recorded gracefully as
 *     "job-oom" (taxonomy 4) without killing anything.
 *   - The in-flight job of a dead worker is retried on another
 *     worker. A job that kills poisonThreshold consecutive workers
 *     is quarantined: recorded as a classified failure with a
 *     synthesized crash report, never retried (not even by
 *     --resume: the quarantine record is journaled like any other
 *     result).
 *   - Dead workers are respawned with exponential backoff, bounded
 *     per slot. When the budget runs out the pool degrades instead
 *     of failing: remaining jobs drain on the surviving workers, or
 *     — with no workers left — the pool hands them back and the
 *     runner drains them on the thread backend. Degradations are
 *     counted, not fatal.
 *
 * Journal appends, cache lookups/stores, and aggregation all stay
 * on the supervisor side, so resume semantics and the byte-identical
 * aggregate guarantee carry over from the thread backend unchanged.
 */

#ifndef WB_CAMPAIGN_WORKER_POOL_HH
#define WB_CAMPAIGN_WORKER_POOL_HH

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "campaign/campaign_runner.hh"

namespace wb
{

/** Rebuild a campaign spec from its journal-header description
 *  ("builtin" name or embedded manifest text, plus the CLI
 *  overrides). Shared by `wbcampaign --resume` and the worker
 *  processes so both reconstruct exactly the supervisor's job list.
 *  @return false with @p err set on an unknown builtin or a
 *  manifest parse/validation error. */
bool buildCampaignSpec(const JournalHeader &desc, CampaignSpec &out,
                       std::string &err);

/** Validate/parse a --chaos-worker spec: "[once:]MODE@JOBINDEX",
 *  MODE in segv|abort|exit|hang|mute|oom. The hook fires only
 *  inside --worker processes (ProcessPoolOptions::chaos or the
 *  WB_CHAOS_WORKER environment variable). */
bool parseChaosSpec(const std::string &spec, std::string &mode,
                    std::size_t &index, bool &once);

/** Callbacks the runner lends the pool. tryCache fills @p res (and
 *  always the cache @p key, when caching is on) and returns true on
 *  a hit; commit takes ownership of a finished result (cache store,
 *  aggregate, journal, done[] bookkeeping). Both are called only
 *  from the supervisor thread. */
using PoolCacheFn =
    std::function<bool(std::size_t, JobResult &, std::string &)>;
using PoolCommitFn = std::function<void(
    std::size_t, JobResult &&, const std::string &, bool)>;

/** Execute every not-yet-done job on a supervised pool of worker
 *  processes. Blocks until all jobs are committed, the stop flag
 *  drained the pool, or every worker slot is gone for good; in the
 *  last case the result is marked degraded and the caller runs the
 *  jobs left uncommitted. @p done marks jobs preloaded from a
 *  resume journal.
 *
 *  With @p telemetry enabled, workers stream Telemetry frames
 *  (job_codec.hh) that the supervisor routes into the hooks' emit —
 *  the same sink the thread backend uses, so per-job sidecars stay
 *  byte-identical across backends. The frames also sharpen hang
 *  detection: a busy worker whose simulation stops producing
 *  snapshots for heartbeatGraceSeconds is killed and its job
 *  recorded as "job-timeout", even while the wall-clock heartbeat
 *  thread still beats. */
WorkerPoolStats runWorkerPool(const std::vector<JobSpec> &jobs,
                              const std::vector<char> &done,
                              const CampaignRunner::Options &opts,
                              int nworkers, std::atomic<int> &busy,
                              const PoolCacheFn &tryCache,
                              const PoolCommitFn &commit,
                              const TelemetryHooks *telemetry =
                                  nullptr);

/** Worker-process entry point (`wbcampaign --worker`): speak the
 *  frame protocol on fds 3/4 until EOF/Shutdown. Returns the
 *  process exit code (0 done, 5 cooperative drain, 3 protocol or
 *  spec-rebuild failure). */
int campaignWorkerMain();

} // namespace wb

#endif // WB_CAMPAIGN_WORKER_POOL_HH

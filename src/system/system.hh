/**
 * @file
 * Whole-system model: N nodes, each hosting a core + private caches
 * + one LLC bank slice, connected by a 2D mesh (or an ideal jittered
 * network for stress testing). This is the library's main entry
 * point: build a SystemConfig and a Workload, construct a System,
 * call run().
 */

#ifndef WB_SYSTEM_SYSTEM_HH
#define WB_SYSTEM_SYSTEM_HH

#include <array>
#include <atomic>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "checker/checker_tap.hh"
#include "checker/tso_checker.hh"
#include "coherence/config.hh"
#include "coherence/l1_controller.hh"
#include "coherence/llc_bank.hh"
#include "coherence/main_memory.hh"
#include "core/core.hh"
#include "isa/program.hh"
#include "network/ideal.hh"
#include "network/mesh.hh"
#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "obs/timeline.hh"
#include "recovery/recovery.hh"
#include "sim/event_queue.hh"
#include "sim/fault.hh"
#include "sim/results.hh"
#include "sim/stats.hh"

namespace wb
{

/** Interconnect selection. */
enum class NetworkKind
{
    Mesh,  //!< 4x4 mesh, Table 6 parameters
    Ideal, //!< fixed latency + random jitter (adversarial tests)
};

/** "mesh" | "ideal" (wbsim --network, the manifest's network key,
 *  the JSON report). */
const char *networkKindName(NetworkKind k);
/** @return false for a name networkKindName never returns. */
bool parseNetworkKind(const std::string &s, NetworkKind &out);

struct SystemConfig
{
    int numCores = 16;
    CoreConfig core;
    MemSystemConfig mem;
    NetworkKind network = NetworkKind::Mesh;
    MeshConfig mesh;
    IdealNetworkConfig ideal;
    bool checker = true;         //!< attach the dynamic TSO checker
    /**
     * Host threads to shard the simulation across (conservative
     * PDES; docs/PARALLEL.md). The system is partitioned by tile
     * (core + L1 + LLC bank); shards advance in barrier-synced
     * epochs bounded by the network's minimum cross-node latency.
     * Results are byte-identical for every value. Values > 1
     * require the fault/recovery/observability layers to be off.
     */
    int shards = 1;
    Tick maxCycles = 100'000'000;
    Tick watchdogCycles = 200'000; //!< no commit anywhere => deadlock

    /** Network fault campaign; inactive unless faults.enabled(). */
    FaultConfig faults{};

    /** Message-loss recovery layer (endpoint ARQ + transport
     *  retransmission + duplicate-safe sinks); off by default so
     *  fault runs keep their fail-fast classification. */
    RecoveryConfig recovery{};

    /** Observability layer (flight recorder, metrics registry and
     *  the timeline view of it); off by default — disabled runs
     *  take one extra null test per hook. */
    ObsConfig obs{};

    // Per-transaction watchdog (escalates warn -> dump -> verdict).
    Tick txnWarnCycles = 120'000;     //!< stderr warning + dump
    Tick txnDeadlockCycles = 400'000; //!< deadlock verdict
    Tick watchdogPollCycles = 2'048;  //!< age-scan interval
    /** Post-completion budget for in-flight traffic / writebacks to
     *  settle before the message-leak and MSHR-empty checks. */
    Tick teardownDrainCycles = 100'000;

    /** Convenience: the commit mode, and a lockdown core for OooWB. */
    void
    setMode(CommitMode mode)
    {
        core.commitMode = mode;
        core.lockdown = mode == CommitMode::OooWB;
    }

    /**
     * The machines the model can run: "" when a System can be built
     * for a workload of @p threads threads, else the first rule
     * broken, in the words System's constructor fatals with. Reads
     * only this config. wbsim and CampaignSpec::validate call it too.
     */
    std::string validate(int threads) const;
};

/**
 * The full simulated machine.
 *
 * Thread-safety: a System is entirely self-contained — event queue,
 * stat registry, RNGs, fault injector, checker and trace mask are
 * all owned by the instance, and the only process-global mutable
 * state in the simulator is StderrGate's mutex and status line
 * (sim/log.hh), which guard stderr.
 * Concurrent System instances on different threads are therefore
 * data-race free (the campaign runner relies on this); a single
 * instance is NOT internally synchronised and must be driven from
 * one thread.
 */
class System
{
  public:
    System(const SystemConfig &cfg, const Workload &workload);
    ~System();

    /** Run to completion (or watchdog / cycle cap) and summarise.
     *  Equivalent to runToCycle(maxCycles) + finishRun(). */
    SimResults run();

    /**
     * Run until cycle @p target, pausing there if the simulation is
     * still live. Callable repeatedly; watchdog state carries over,
     * so a paused-and-resumed run steps through exactly the same
     * states as an uninterrupted one (checkpoint/restore relies on
     * this). With faults armed that holds only for pauses on the
     * epoch grid (docs/CHECKPOINT.md, "Pauses with faults armed").
     *
     * @return true when paused at @p target with more to run;
     *         false when the run ended (all threads halted, a
     *         watchdog fired, or the cycle cap was reached) —
     *         call finishRun() then.
     */
    bool runToCycle(Tick target);

    /** Teardown drain + final classification and summary for a run
     *  driven by runToCycle(). run() == runToCycle(cap) + this. */
    SimResults finishRun();

    /** @return true once every thread halted and drained. */
    bool allDone() const;

    // component access for tests and tools

    /** The primary (shard 0) event queue. With shards == 1 this is
     *  the queue driving the whole simulation. */
    EventQueue &eventQueue() { return _shards[0]->eq; }

    /** Events executed across every shard queue (invariant across
     *  shard counts for a given workload). */
    std::uint64_t eventsExecuted() const;

    /** Barrier-synced epoch length (the network lookahead). */
    Tick epochLength() const { return _epochLen; }

    /** Tick phases tile @p tile has run: the cycles it was awake.
     *  Derived, like the sleep state; in no report or witness. */
    std::uint64_t tileTicks(int tile) const;

    StatRegistry &stats() { return _stats; }
    MainMemory &memory() { return _memory; }
    TsoChecker *checker() { return _checker.get(); }
    Core &core(int i) { return *_cores[std::size_t(i)]; }
    L1Controller &l1(int i) { return *_l1s[std::size_t(i)]; }
    LLCBank &llc(int i) { return *_llcs[std::size_t(i)]; }
    Network &network() { return *_net; }
    const Network &network() const { return *_net; }
    int numCores() const { return _cfg.numCores; }
    Tick cycle() const { return _cycle; }
    const SystemConfig &config() const { return _cfg; }

    /** The fault oracle, nullptr when the campaign is disabled. */
    FaultInjector *faultInjector() { return _faults.get(); }
    const FaultInjector *faultInjector() const
    {
        return _faults.get();
    }

    /** The flight recorder, nullptr unless obs.flightRecorder > 0. */
    FlightRecorder *flightRecorder() { return _recorder.get(); }
    const FlightRecorder *flightRecorder() const
    {
        return _recorder.get();
    }

    /** The timeline sampler, nullptr unless obs.timelinePeriod > 0. */
    TimelineSampler *timeline() { return _timeline.get(); }
    const TimelineSampler *timeline() const { return _timeline.get(); }

    /** The metrics registry, nullptr unless obs.metricsEnabled(). */
    MetricsRegistry *metrics() { return _metrics.get(); }
    const MetricsRegistry *metrics() const { return _metrics.get(); }

    /** The snapshot streamer, nullptr unless obs.metricsPeriod > 0.
     *  Callers attach sinks (file / callback) before run(). */
    MetricsStreamer *metricsStream() { return _mstream.get(); }
    const MetricsStreamer *metricsStream() const
    {
        return _mstream.get();
    }

    /** Which hang detector fired ("" while none has). */
    const std::string &deadlockReason() const
    {
        return _deadlockReason;
    }

    /**
     * Cheap teardown probe: no message in flight, no L1 MSHR or
     * writeback pending, no LLC eviction/retry work queued. Used by
     * the post-completion drain loop.
     */
    bool quiescent() const;

    /**
     * Full end-of-run hygiene check: quiescent() plus no undelivered
     * (incl. dropped) ledger entries and no transient directory
     * entries. On failure @p why (if non-null) names the first
     * offender.
     */
    bool cleanTeardown(std::string *why = nullptr) const;

    /** Gather current statistics into a SimResults. */
    SimResults snapshot() const;

    /** Dump all stuck-component state (watchdog diagnostics). */
    void dumpState(std::ostream &os) const;

    /**
     * dumpState formatted into a private buffer and emitted as one
     * stdio call. Watchdog diagnostics use this instead of writing
     * std::cerr directly: iostream manipulators mutate the shared
     * stream's format flags, which is a data race when concurrent
     * System instances (e.g. a campaign) escalate at once.
     */
    void dumpStateToStderr() const;

    /**
     * Functional read of the current globally-visible value of a
     * word: prefers an exclusive/modified private copy, then the
     * LLC image, then memory. Intended for test assertions after a
     * run (values may still be cached dirty).
     */
    std::uint64_t peekCoherent(Addr addr) const;

  private:
    /** Scan per-component transaction ages and escalate
     *  (warn -> dump -> deadlock verdict). @return true on verdict. */
    bool pollTransactionAges();

    /** Oldest in-flight transaction age across all L1s and LLC
     *  banks; @p who (if non-null) names the worst component. */
    Tick oldestTxnAge(std::string *who) const;

    /** Let post-completion traffic settle, then run the leak check;
     *  sets the deadlock verdict if the machine never goes quiet. */
    void drainTeardown();

    /** Retire dropped request-vnet ledger entries whose transaction
     *  provably completed through an endpoint ARQ re-issue. */
    void reclassifyRecoveredRequests();

    /** Sleep state of one tile (core, L1, LLC bank and inbox i;
     *  docs/PERFORMANCE.md, "Quiet tiles sleep"). Derived: in no
     *  witness and no report. */
    struct TileSleep
    {
        bool asleep = false;
        Tick accounted = 0;      //!< asleep: counters exact to here
        Tick wakeAt = maxTick;   //!< asleep: its time wake
        Core::QuietTick quiet;   //!< asleep: what a skipped tick adds
        std::uint64_t ticks = 0; //!< tick phases run (tileTicks())
    };

    /**
     * One shard: a contiguous tile range [firstTile, endTile) with
     * its own event queue, advanced by exactly one thread at a time
     * (worker thread during an epoch, barrier thread between). The
     * tiles' sleep state is inline and the shard is cache-line
     * aligned, so no two shards write one line. Per-tile arrays are
     * indexed by tile - firstTile.
     */
    struct alignas(64) Shard
    {
        EventQueue eq;
        int firstTile = 0;
        int endTile = 0; //!< exclusive
        Tick cycle = 0;  //!< cycle running; == System cycle at barriers
        /** The core phase of `cycle` has passed every tile below this
         *  one (a panic's unwinding settles sleepers by it). */
        int coresPassed = 0;
        int numAwake = 0; //!< awake after the last cycle; 0: jump
        std::array<int, maxCores> awake{}; //!< ascending tile numbers
        /** Set by touch(): state a sleeping tile's tick reads changed. */
        std::array<bool, maxCores> touched{};
        std::array<TileSleep, maxCores> sleep{};
    };

    /** Advance one shard to @p target: deliveries, events, the tick
     *  phases of its awake tiles, done-onset tracking. With every
     *  tile asleep it jumps to the next activity. Sleeping tiles'
     *  counters are exact on return. */
    void runShardTo(Shard &sh, Tick target);

    /** The first cycle after sh.cycle, at most @p target, in which
     *  something can happen: an event, an inbox arrival, a time wake
     *  or an observer sample. */
    Tick nextActivity(const Shard &sh, Tick target) const;

    /** Wake the sleeping tiles touched or due by cycle @p c, and list
     *  the awake ones. */
    void wakeTiles(Shard &sh, Tick c);

    /** Run the tick phases of the awake tiles at cycle @p c; a tile
     *  whose tick changed nothing falls asleep. */
    void tickAwakeTiles(Shard &sh, Tick c);

    /** Count tile @p tile's skipped ticks up to cycle @p through. */
    void settle(TileSleep &ts, int tile, Tick through);

    /** Bring every sleeping tile's counters up to date: through
     *  sh.cycle, or the cycle before it for tiles the core phase has
     *  not passed. */
    void settleSleepers(Shard &sh);

    /** Advance every shard to @p target, then run the serial
     *  barrier phase (message commit, checker replay). */
    void runEpoch(Tick target);

    /** Next natural epoch boundary after cycle @p c (epoch grid
     *  joined with the watchdog poll grid). Natural boundaries are
     *  an intrinsic function of the cycle number, so completion and
     *  watchdog checks land on the same cycles no matter where a
     *  pause/resume split the run. */
    Tick nextBoundary(Tick c) const;

    /** True when shard workers exist and are parked (shards > 1). */
    bool threaded() const { return !_threads.empty(); }

    /** Serial barrier phase: canonical message commit + checker-tap
     *  replay. */
    void barrierCommit();

    /** All shard queues drained (teardown idle check). */
    bool queuesEmpty() const;

    void workerLoop(std::size_t shard_index);
    void stopWorkers();

    SystemConfig _cfg;
    StatRegistry _stats;
    MainMemory _memory;
    std::unique_ptr<FlightRecorder> _recorder;
    std::unique_ptr<MetricsRegistry> _metrics;
    std::unique_ptr<MetricsStreamer> _mstream;
    std::unique_ptr<TimelineSampler> _timeline; //!< reads _metrics
    std::unique_ptr<FaultInjector> _faults;
    std::unique_ptr<Network> _net;
    std::unique_ptr<TsoChecker> _checker;
    std::vector<std::unique_ptr<CheckerTap>> _taps; //!< per tile
    std::vector<std::unique_ptr<L1Controller>> _l1s;
    std::vector<std::unique_ptr<LLCBank>> _llcs;
    std::vector<std::unique_ptr<Core>> _cores;
    std::vector<Program> _programs; //!< padded to numCores

    // sharded execution engine
    std::vector<std::unique_ptr<Shard>> _shards;
    std::vector<int> _tileShard;     //!< tile -> owning shard
    Tick _epochLen = 1;              //!< network lookahead
    std::vector<std::thread> _threads; //!< workers for shards 1..S-1
    std::atomic<std::uint64_t> _epochSeq{0}; //!< release pulse
    std::atomic<std::uint32_t> _arrived{0};  //!< epoch completions
    std::atomic<bool> _shutdown{false};
    Tick _epochTarget = 0; //!< published before the release pulse

    /** First cycle each core was observed done (0 = not yet); the
     *  reported completion cycle is the max onset, which equals the
     *  cycle a per-tick completion scan would have stopped at. */
    std::vector<Tick> _doneOnset;

    Tick _cycle = 0;
    bool _deadlocked = false;
    std::string _deadlockReason;
    bool _txnWarned = false;
    bool _txnDumped = false;
    std::uint64_t _lastCommits = 0;
    Tick _lastProgress = 0;
    bool _runStarted = false; //!< watchdog baselines initialised
};

/** One-line human description of a config (Table 6 style). */
std::string describeConfig(const SystemConfig &cfg);

} // namespace wb

#endif // WB_SYSTEM_SYSTEM_HH

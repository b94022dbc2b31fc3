#include "system/system.hh"

#include <algorithm>
#include <cassert>
#include <cstdarg>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <tuple>
#include <utility>

#include "coherence/messages.hh"
#include "sim/log.hh"

namespace wb
{

namespace
{

/** Watchdog diagnostics go through the single guarded stderr
 *  writer, so they cannot tear against a campaign progress line or
 *  another worker's dump. */
void
watchdogLine(const char *fmt, ...)
#ifdef __GNUC__
    __attribute__((format(printf, 1, 2)))
#endif
    ;

void
watchdogLine(const char *fmt, ...)
{
    char buf[256];
    std::va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    StderrGate::writeBlock(stderr, buf);
}

} // namespace

const char *
networkKindName(NetworkKind k)
{
    return k == NetworkKind::Mesh ? "mesh" : "ideal";
}

bool
parseNetworkKind(const std::string &s, NetworkKind &out)
{
    for (const NetworkKind k : {NetworkKind::Mesh, NetworkKind::Ideal})
        if (s == networkKindName(k)) {
            out = k;
            return true;
        }
    return false;
}

std::string
SystemConfig::validate(int threads) const
{
    using std::to_string;
    if (threads > numCores)
        return "workload has " + to_string(threads) +
               " threads but only " + to_string(numCores) + " cores";
    if (numCores < 1 || numCores > maxCores)
        return "numCores must be in [1, " + to_string(maxCores) +
               "] (the directory's sharer set), got " +
               to_string(numCores);
    if (shards < 1 || shards > numCores)
        return "shards must be in [1, " + to_string(numCores) +
               "], got " + to_string(shards);
    if (shards > 1 &&
        (faults.enabled() || recovery.enabled ||
         obs.flightRecorder > 0 || obs.metricsEnabled() ||
         obs.trace != 0))
        return "shards > 1 requires the fault, recovery and "
               "observability layers to be disabled "
               "(docs/PARALLEL.md)";
    // A parsed spec was checked clause by clause; a built one was not.
    if (faults.enabled()) {
        if (const std::string err = faults.validate(); !err.empty())
            return "fault config: " + err;
    }
    if (recovery.enabled &&
        (recovery.pollCycles == 0 || recovery.retryTimeoutCycles == 0 ||
         recovery.retransmitBaseCycles == 0))
        return "recovery config: cycle parameters must be >= 1";

    // The network's localLatency() and lookahead() (the epoch length).
    const bool on_mesh = network == NetworkKind::Mesh;
    if (on_mesh && mesh.width * mesh.height < numCores)
        return "mesh too small for " + to_string(numCores) + " cores";
    if ((on_mesh ? mesh.localLatency : ideal.localLatency) < 1)
        return "network local latency must be >= 1 (a zero-latency "
               "self-send would arrive inside its own tick)";
    if ((on_mesh ? mesh.hopLatency : ideal.baseLatency) < 1)
        return "network lookahead must be >= 1";

    // In the order a tile builds them: L2 array, L1 tags, LLC bank.
    for (const auto &[size, assoc] :
         {std::pair{mem.l2Size, mem.l2Assoc},
          {mem.l1Size, mem.l1Assoc},
          {mem.llcBankSize, mem.llcAssoc}})
        if (std::string err = cacheGeometryError(size, assoc);
            !err.empty())
            return err;

    if (core.commitMode == CommitMode::OooWB && !core.lockdown)
        return "OooWB commit requires a lockdown core";

    // A structure without an entry, or a stage without a slot, never
    // commits; an empty LDT runs (ablation_ldt's ldt0 column).
    for (const auto &[name, value, least] :
         {std::tuple<const char *, long long, int>{
              "core.fetchWidth", core.fetchWidth, 1},
          {"core.commitWidth", core.commitWidth, 1},
          {"core.iqSize", core.iqSize, 1},
          {"core.robSize", core.robSize, 1},
          {"core.lqSize", core.lqSize, 1},
          {"core.sqSize", core.sqSize, 1},
          {"core.sbSize", core.sbSize, 1},
          {"core.cachePorts", core.cachePorts, 1},
          {"core.ldtSize", core.ldtSize, 0},
          {"mem.numMshrs", mem.numMshrs, 1}})
        if (value < least)
            return std::string(name) + " must be >= " +
                   to_string(least) + ", got " + to_string(value);
    return "";
}

System::System(const SystemConfig &cfg, const Workload &workload)
    : _cfg(cfg)
{
    const std::string bad = cfg.validate(int(workload.threads.size()));
    if (!bad.empty())
        fatal("%s", bad.c_str());

    // Pad programs so that every core has one (idle cores halt).
    _programs = workload.threads;
    while (int(_programs.size()) < cfg.numCores)
        _programs.push_back(Program{Instr{Opcode::Halt, 0, 0, 0, 0,
                                          0}});

    // Stripe memory by home bank before any contents exist, so each
    // LLC bank (and with it each shard) owns its stripe exclusively.
    _cfg.mem.numBanks = unsigned(cfg.numCores);
    _memory.setBanks(cfg.numCores);
    for (const auto &[addr, value] : workload.initMem)
        _memory.poke(addr, value);

    // Tile partition: contiguous, near-equal ranges.
    _shards.reserve(std::size_t(cfg.shards));
    _tileShard.assign(std::size_t(cfg.numCores), 0);
    for (int s = 0; s < cfg.shards; ++s) {
        auto sh = std::make_unique<Shard>();
        sh->firstTile = s * cfg.numCores / cfg.shards;
        sh->endTile = (s + 1) * cfg.numCores / cfg.shards;
        for (int i = sh->firstTile; i < sh->endTile; ++i)
            _tileShard[std::size_t(i)] = s;
        sh->numAwake = sh->endTile - sh->firstTile;
        _shards.push_back(std::move(sh));
    }
    _doneOnset.assign(std::size_t(cfg.numCores), 0);

    if (cfg.faults.enabled())
        _faults = std::make_unique<FaultInjector>(cfg.faults);

    if (cfg.obs.flightRecorder > 0)
        _recorder = std::make_unique<FlightRecorder>(
            &_stats, cfg.obs.flightRecorder);

    // The network rides shard 0's queue (only the single-shard
    // retransmission path schedules events on it).
    EventQueue *eq0 = &_shards[0]->eq;
    if (cfg.network == NetworkKind::Mesh) {
        _net = std::make_unique<MeshNetwork>("net", eq0, &_stats,
                                             cfg.mesh);
    } else {
        IdealNetworkConfig ic = cfg.ideal;
        ic.numNodes = cfg.numCores;
        _net = std::make_unique<IdealNetwork>("net", eq0, &_stats,
                                              ic);
    }
    _epochLen = _net->lookahead();
    if (_faults)
        _net->setFaultInjector(_faults.get());
    if (cfg.recovery.enabled)
        _net->setRecovery(cfg.recovery);
    if (_recorder)
        _net->setFlightRecorder(_recorder.get());

    if (cfg.checker) {
        _checker = std::make_unique<TsoChecker>(cfg.numCores);
        _checker->setTraceMask(cfg.obs.trace);
    }

    for (int i = 0; i < cfg.numCores; ++i) {
        Shard &sh = *_shards[std::size_t(_tileShard[std::size_t(i)])];
        EventQueue *eq = &sh.eq;
        _l1s.push_back(std::make_unique<L1Controller>(
            "l1." + std::to_string(i), eq, &_stats, i, _cfg.mem,
            _net.get(), cfg.numCores));
        _llcs.push_back(std::make_unique<LLCBank>(
            "llc." + std::to_string(i), eq, &_stats, i, _cfg.mem,
            _net.get(), &_memory));
        _cores.push_back(std::make_unique<Core>(
            "core." + std::to_string(i), eq, &_stats, i, cfg.core,
            _l1s.back().get(), &_programs[std::size_t(i)]));
        _l1s.back()->setCore(_cores.back().get());
        bool *touched = &sh.touched[std::size_t(i - sh.firstTile)];
        _l1s.back()->setTouchFlag(touched);
        _llcs.back()->setTouchFlag(touched);
        _cores.back()->setTouchFlag(touched);
        if (cfg.recovery.enabled) {
            _l1s.back()->setRecovery(cfg.recovery);
            _llcs.back()->setRecovery(cfg.recovery);
        }
        if (_checker) {
            // Per-tile tap: events are buffered on the owning
            // shard's thread and replayed into the checker in
            // canonical order at each epoch barrier.
            _taps.push_back(std::make_unique<CheckerTap>());
            _taps.back()->bind(eq);
            _l1s.back()->setCheckerTap(_taps.back().get());
            _cores.back()->setCheckerTap(_taps.back().get());
        }
        if (_recorder) {
            _l1s.back()->setFlightRecorder(_recorder.get());
            _llcs.back()->setFlightRecorder(_recorder.get());
            _cores.back()->setFlightRecorder(_recorder.get());
        }
        _l1s.back()->setTraceMask(cfg.obs.trace);
        _llcs.back()->setTraceMask(cfg.obs.trace);
        _cores.back()->setTraceMask(cfg.obs.trace);
    }

    for (int i = 0; i < cfg.numCores; ++i) {
        L1Controller *l1 = _l1s[std::size_t(i)].get();
        LLCBank *llc = _llcs[std::size_t(i)].get();
        _net->registerNode(i, [l1, llc](MsgPtr msg) {
            auto *cm = static_cast<CohMsg *>(msg.get());
            if (cohToDirectory(cm->type))
                llc->handleMessage(std::move(msg));
            else
                l1->handleMessage(std::move(msg));
        });
    }

    // Metrics registry last, so every component's counters are
    // already in the StatRegistry and each SimObject can add its
    // gauges. Gauges never enter the StatRegistry: run reports stay
    // byte-identical whether or not metrics are enabled. The
    // timeline reads its rows from this registry.
    if (cfg.obs.metricsEnabled()) {
        _metrics = std::make_unique<MetricsRegistry>(&_stats);
        _net->registerMetrics(*_metrics);
        for (auto &l1 : _l1s)
            l1->registerMetrics(*_metrics);
        for (auto &llc : _llcs)
            llc->registerMetrics(*_metrics);
        for (auto &core : _cores)
            core->registerMetrics(*_metrics);
        if (cfg.obs.metricsPeriod > 0)
            _mstream = std::make_unique<MetricsStreamer>(
                _metrics.get(), cfg.obs.metricsPeriod);
        if (cfg.obs.timelinePeriod > 0)
            _timeline = std::make_unique<TimelineSampler>(
                *_metrics, cfg.obs.timelinePeriod);
    }

    // Persistent workers for shards 1..S-1; shard 0 runs on the
    // driving thread. Workers park on the epoch-release pulse.
    for (std::size_t s = 1; s < _shards.size(); ++s)
        _threads.emplace_back([this, s] { workerLoop(s); });
}

System::~System() { stopWorkers(); }

void
System::stopWorkers()
{
    if (_threads.empty())
        return;
    _shutdown.store(true, std::memory_order_release);
    for (std::thread &t : _threads)
        t.join();
    _threads.clear();
}

void
System::workerLoop(std::size_t shard_index)
{
    std::uint64_t seen = 0;
    for (;;) {
        while (_epochSeq.load(std::memory_order_acquire) == seen) {
            if (_shutdown.load(std::memory_order_acquire))
                return;
            std::this_thread::yield();
        }
        ++seen;
        runShardTo(*_shards[shard_index], _epochTarget);
        _arrived.fetch_add(1, std::memory_order_release);
    }
}

void
System::runShardTo(Shard &sh, Tick target)
{
    // Sleeping tiles are brought up to date on every exit, a panic's
    // unwinding included, so barrier checks, reports, snapshots and
    // crash dumps read exact counters.
    try {
        while (sh.cycle < target) {
            // With every tile asleep nothing changes before the
            // shard's next activity: skip the cycles up to it.
            const Tick c =
                sh.numAwake ? sh.cycle + 1 : nextActivity(sh, target);
            sh.cycle = c;
            sh.coresPassed = sh.firstTile;
            // Arrivals first (they were placed by the previous
            // barrier commit or by same-shard local sends), then the
            // queue, then the tick phases in the legacy order.
            for (int i = sh.firstTile; i < sh.endTile; ++i)
                if (_net->nextArrival(i) == c)
                    _net->scheduleDeliveries(i, c, sh.eq);
            sh.eq.runUntil(c);
            wakeTiles(sh, c);
            tickAwakeTiles(sh, c);
            sh.coresPassed = sh.endTile;
            // Observability hooks are single-shard-only (enforced in
            // the constructor), so they keep their legacy per-tick
            // cadence.
            if (_timeline && _timeline->due(c)) {
                settleSleepers(sh);
                _timeline->sample(c);
            }
            if (_mstream && _mstream->due(c)) {
                settleSleepers(sh);
                _mstream->emit(c);
            }
        }
    } catch (...) {
        settleSleepers(sh);
        throw;
    }
    settleSleepers(sh);
}

Tick
System::nextActivity(const Shard &sh, Tick target) const
{
    Tick next = std::min(target, sh.eq.nextTick(target));
    for (int i = sh.firstTile; i < sh.endTile; ++i)
        next = std::min({next, _net->nextArrival(i),
                         sh.sleep[std::size_t(i - sh.firstTile)].wakeAt});
    for (const Tick period :
         {_timeline ? _timeline->period() : Tick(0),
          _mstream ? _mstream->period() : Tick(0)})
        if (period)
            next = std::min(next, (sh.cycle / period + 1) * period);
    return std::max(next, sh.cycle + 1);
}

void
System::wakeTiles(Shard &sh, Tick c)
{
    int n = 0;
    for (int i = sh.firstTile; i < sh.endTile; ++i) {
        const auto k = std::size_t(i - sh.firstTile);
        TileSleep &ts = sh.sleep[k];
        if (ts.asleep) {
            if (!sh.touched[k] && ts.wakeAt > c)
                continue;
            settle(ts, i, c - 1);
            ts.asleep = false;
        }
        sh.awake[std::size_t(n++)] = i;
    }
    sh.numAwake = n;
}

void
System::tickAwakeTiles(Shard &sh, Tick c)
{
    const int *const first = sh.awake.data();
    const int *const last = first + sh.numAwake;
    for (const int *p = first; p != last; ++p) {
        sh.touched[std::size_t(*p - sh.firstTile)] = false;
        _l1s[std::size_t(*p)]->tick();
    }
    for (const int *p = first; p != last; ++p)
        _llcs[std::size_t(*p)]->tick();
    for (const int *p = first; p != last; ++p) {
        sh.coresPassed = *p;
        Core &core = *_cores[std::size_t(*p)];
        core.tick();
        if (!_doneOnset[std::size_t(*p)] && core.done())
            _doneOnset[std::size_t(*p)] = c;
    }

    // A tile whose tick touched nothing would repeat that tick until
    // something touches it or a time wake comes. (A retry queue with
    // work touches on every tick: the L1 tick touches while one of
    // its queues holds work, and the LLC pushes a request that fails
    // again back onto its queue.) So it sleeps, and what each skipped
    // tick adds is fixed now, from the state this tick left.
    int n = 0;
    for (const int *p = first; p != last; ++p) {
        const auto k = std::size_t(*p - sh.firstTile);
        TileSleep &ts = sh.sleep[k];
        ++ts.ticks;
        if (sh.touched[k]) {
            sh.awake[std::size_t(n++)] = *p;
            continue;
        }
        Core &core = *_cores[std::size_t(*p)];
        ts.asleep = true;
        ts.accounted = c;
        ts.quiet = core.quietTick();
        ts.wakeAt = std::min(core.fetchWakeTick(),
                             _l1s[std::size_t(*p)]->nextRecoveryPoll(c));
    }
    sh.numAwake = n;
}

void
System::settle(TileSleep &ts, int tile, Tick through)
{
    if (through <= ts.accounted)
        return;
    _cores[std::size_t(tile)]->countQuietTicks(ts.quiet,
                                               through - ts.accounted);
    ts.accounted = through;
}

void
System::settleSleepers(Shard &sh)
{
    for (int i = sh.firstTile; i < sh.endTile; ++i) {
        TileSleep &ts = sh.sleep[std::size_t(i - sh.firstTile)];
        if (ts.asleep)
            settle(ts, i, i < sh.coresPassed ? sh.cycle : sh.cycle - 1);
    }
}

std::uint64_t
System::tileTicks(int tile) const
{
    const Shard &sh = *_shards[std::size_t(_tileShard[std::size_t(tile)])];
    return sh.sleep[std::size_t(tile - sh.firstTile)].ticks;
}

void
System::barrierCommit()
{
    _net->commitSends();

    if (!_checker || _taps.empty())
        return;
    // Replay the per-tile taps in canonical (tick, tile, local)
    // order. Cross-tile store->load observation always crosses the
    // network (>= 1 tick), so the tile-major same-tick tie-break
    // cannot reorder any pair the checker is sensitive to.
    struct Item
    {
        CheckerTap::Rec rec;
        int tile;
    };
    std::vector<Item> all;
    for (int i = 0; i < _cfg.numCores; ++i) {
        for (CheckerTap::Rec &r : _taps[std::size_t(i)]->take())
            all.push_back(Item{r, i});
    }
    if (all.empty())
        return;
    std::sort(all.begin(), all.end(),
              [](const Item &a, const Item &b) {
                  if (a.rec.when != b.rec.when)
                      return a.rec.when < b.rec.when;
                  if (a.tile != b.tile)
                      return a.tile < b.tile;
                  return a.rec.localSeq < b.rec.localSeq;
              });
    for (const Item &it : all) {
        _checker->setTime(it.rec.when);
        if (it.rec.isStore)
            _checker->storePerformed(it.rec.core, it.rec.addr,
                                     it.rec.value, it.rec.ver);
        else
            _checker->loadCompleted(it.rec.core, it.rec.addr,
                                    it.rec.ver, it.rec.forwarded);
    }
}

void
System::runEpoch(Tick target)
{
    assert(target > _cycle);
    if (!threaded()) {
        for (auto &sh : _shards)
            runShardTo(*sh, target);
    } else {
        _epochTarget = target;
        _arrived.store(0, std::memory_order_relaxed);
        // Release pulse: publishes _epochTarget to the workers.
        _epochSeq.fetch_add(1, std::memory_order_release);
        runShardTo(*_shards[0], target);
        const auto want = std::uint32_t(_threads.size());
        while (_arrived.load(std::memory_order_acquire) != want)
            std::this_thread::yield();
    }
    _cycle = target;
    barrierCommit();
}

Tick
System::nextBoundary(Tick c) const
{
    Tick nb = (c / _epochLen + 1) * _epochLen;
    if (_cfg.watchdogPollCycles) {
        const Tick np = (c / _cfg.watchdogPollCycles + 1) *
                        _cfg.watchdogPollCycles;
        nb = std::min(nb, np);
    }
    return nb;
}

std::uint64_t
System::eventsExecuted() const
{
    std::uint64_t n = 0;
    for (const auto &sh : _shards)
        n += sh->eq.executed();
    return n;
}

bool
System::queuesEmpty() const
{
    for (const auto &sh : _shards)
        if (!sh->eq.empty())
            return false;
    return true;
}

bool
System::allDone() const
{
    for (const auto &c : _cores)
        if (!c->done())
            return false;
    return true;
}

SimResults
System::run()
{
    runToCycle(_cfg.maxCycles);
    return finishRun();
}

bool
System::runToCycle(Tick target)
{
    // Watchdog baselines are initialised exactly once so a
    // pause/resume sequence steps through the same states as an
    // uninterrupted run (checkpoint witnesses depend on this).
    if (!_runStarted) {
        _runStarted = true;
        _lastProgress = _cycle;
        _lastCommits = 0;
    }
    const Tick stop = std::min(target, _cfg.maxCycles);
    while (_cycle < stop) {
        const Tick b = std::min(stop, nextBoundary(_cycle));
        runEpoch(b);

        // Completion and watchdog checks run only at *natural*
        // boundaries (epoch or poll grid): an arbitrary pause
        // target must not introduce extra check points, or a
        // paused-and-resumed run could classify differently from an
        // uninterrupted one.
        const bool natural =
            b % _epochLen == 0 ||
            (_cfg.watchdogPollCycles &&
             b % _cfg.watchdogPollCycles == 0);
        if (!natural)
            continue;

        if (allDone())
            return false;

        // Deadlock watchdog: global commit progress must continue.
        std::uint64_t commits = 0;
        for (const auto &c : _cores)
            commits += c->instructionsCommitted();
        if (commits != _lastCommits) {
            _lastCommits = commits;
            _lastProgress = _cycle;
        } else if (_cycle - _lastProgress > _cfg.watchdogCycles) {
            _deadlocked = true;
            _deadlockReason = "commit-watchdog";
            watchdogLine("WATCHDOG: no commit for %llu cycles at "
                         "cycle %llu\n",
                         static_cast<unsigned long long>(
                             _cfg.watchdogCycles),
                         static_cast<unsigned long long>(_cycle));
            dumpStateToStderr();
            return false;
        }

        // Per-transaction watchdog: a single wedged MSHR or
        // directory entry must be diagnosed even while other cores
        // keep committing (the global watchdog never fires then).
        if (_cfg.watchdogPollCycles &&
            _cycle % _cfg.watchdogPollCycles == 0 &&
            pollTransactionAges())
            return false;
    }

    // Reached the pause target with the simulation still live —
    // unless the target was the cycle cap itself, which ends the
    // run (finishRun() classifies it).
    return _cycle < _cfg.maxCycles;
}

SimResults
System::finishRun()
{
    // Record the cycle the workload finished (or wedged) at before
    // the teardown drain, so reported performance is comparable
    // whether or not a drain was needed. For a completed run the
    // finish cycle is the latest per-core done onset — the cycle a
    // per-tick completion scan would have stopped at — which makes
    // the reported number independent of the epoch quantisation
    // (and therefore of the shard count).
    Tick done_cycle = _cycle;
    if (!_deadlocked && allDone()) {
        Tick latest = 0;
        for (Tick t : _doneOnset)
            latest = std::max(latest, t);
        if (latest)
            done_cycle = latest;
        drainTeardown();
    }

    // Close out the snapshot stream: capture any drift since the
    // last due period (and the header, for runs shorter than one
    // period).
    if (_mstream)
        _mstream->finish(_cycle);

    SimResults r = snapshot();
    r.cycles = done_cycle;
    r.completed = allDone();
    r.deadlocked = _deadlocked;
    r.deadlockReason = _deadlockReason;
    return r;
}

bool
System::pollTransactionAges()
{
    std::string who;
    const Tick age = oldestTxnAge(&who);
    if (age >= _cfg.txnDeadlockCycles) {
        _deadlocked = true;
        _deadlockReason = "transaction-timeout: " + who;
        watchdogLine("WATCHDOG: transaction at %s stuck for %llu "
                     "cycles at cycle %llu\n",
                     who.c_str(),
                     static_cast<unsigned long long>(age),
                     static_cast<unsigned long long>(_cycle));
        dumpStateToStderr();
        return true;
    }
    if (age >= _cfg.txnWarnCycles) {
        if (!_txnWarned) {
            _txnWarned = true;
            watchdogLine(
                "WATCHDOG: slow transaction at %s (age %llu) at "
                "cycle %llu\n",
                who.c_str(), static_cast<unsigned long long>(age),
                static_cast<unsigned long long>(_cycle));
        }
        // Second escalation step: dump full state once, halfway to
        // the deadlock verdict.
        if (!_txnDumped &&
            age >= (_cfg.txnWarnCycles + _cfg.txnDeadlockCycles) /
                       2) {
            _txnDumped = true;
            dumpStateToStderr();
        }
    }
    return false;
}

Tick
System::oldestTxnAge(std::string *who) const
{
    Tick worst = 0;
    for (const auto &l1 : _l1s) {
        const Tick a = l1->oldestTransactionAge(_cycle);
        if (a > worst) {
            worst = a;
            if (who)
                *who = l1->name();
        }
    }
    for (const auto &llc : _llcs) {
        const Tick a = llc->oldestTransactionAge(_cycle);
        if (a > worst) {
            worst = a;
            if (who)
                *who = llc->name();
        }
    }
    return worst;
}

bool
System::quiescent() const
{
    if (_net->inFlight() != 0)
        return false;
    for (const auto &l1 : _l1s)
        if (l1->pendingMshrs() || l1->writebackBufferUse())
            return false;
    for (const auto &llc : _llcs)
        if (llc->evictionBufferUse() || llc->retryQueueUse())
            return false;
    return true;
}

bool
System::cleanTeardown(std::string *why) const
{
    if (_net->undeliveredCount() != 0) {
        if (why) {
            const auto leaked = _net->undelivered();
            char buf[128];
            const auto &m = leaked.front();
            std::snprintf(buf, sizeof(buf),
                          "net: %zu undelivered message(s), first "
                          "%s%s %d->%d line 0x%llx",
                          leaked.size(), m.kind,
                          m.dropped ? " (dropped)" : "", m.src,
                          m.dst,
                          static_cast<unsigned long long>(m.addr));
            *why = buf;
        }
        return false;
    }
    for (const auto &l1 : _l1s) {
        if (l1->pendingMshrs()) {
            if (why) {
                const auto infos = l1->mshrInfos(_cycle);
                char buf[96];
                std::snprintf(
                    buf, sizeof(buf),
                    "%s: %zu outstanding mshr(s), first line "
                    "0x%llx",
                    l1->name().c_str(), infos.size(),
                    infos.empty()
                        ? 0ull
                        : static_cast<unsigned long long>(
                              infos.front().line));
                *why = buf;
            }
            return false;
        }
        if (l1->writebackBufferUse()) {
            if (why)
                *why = l1->name() + ": writeback(s) never acked";
            return false;
        }
    }
    for (const auto &llc : _llcs) {
        const auto infos = llc->transientInfos(_cycle);
        if (!infos.empty()) {
            if (why) {
                char buf[96];
                std::snprintf(
                    buf, sizeof(buf),
                    "%s: line 0x%llx stuck in %s",
                    llc->name().c_str(),
                    static_cast<unsigned long long>(
                        infos.front().line),
                    infos.front().state);
                *why = buf;
            }
            return false;
        }
    }
    return true;
}

void
System::drainTeardown()
{
    // Everything still moving now is protocol housekeeping
    // (writebacks, prefetch fills, eviction recalls): give it a
    // bounded window to settle before judging leaks. Epoch-
    // quantised like the main loop; the idle probe runs at barriers
    // (pending inbox arrivals keep the ledger non-empty, so
    // quiescent() covers them).
    Tick spent = 0;
    while (spent < _cfg.teardownDrainCycles) {
        if (quiescent() && queuesEmpty())
            break;
        const Tick b =
            std::min(_cycle + (_cfg.teardownDrainCycles - spent),
                     nextBoundary(_cycle));
        spent += b - _cycle;
        runEpoch(b);
        // A dropped message can wedge a prefetch or writeback even
        // though every core halted; classify it instead of spinning
        // through the whole drain budget.
        if (_cfg.watchdogPollCycles &&
            _cycle % _cfg.watchdogPollCycles == 0 &&
            pollTransactionAges())
            return;
    }
    if (_cfg.recovery.enabled)
        reclassifyRecoveredRequests();
    std::string why;
    if (!cleanTeardown(&why)) {
        _deadlocked = true;
        _deadlockReason = "message-leak: " + why;
        watchdogLine("WATCHDOG: unclean teardown at cycle %llu: "
                     "%s\n",
                     static_cast<unsigned long long>(_cycle),
                     why.c_str());
        dumpStateToStderr();
    }
}

void
System::reclassifyRecoveredRequests()
{
    // A dropped request created no directory state, so no
    // retransmission chases it; its owner's ARQ re-issue recovers
    // the transaction instead. Once the issuing L1 has nothing
    // outstanding for the line, the transaction provably completed
    // through a re-issue: retire the ledger entry as `recovered` so
    // the drain invariant (injected == delivered + recovered +
    // leaked) stays exact and the leak check only reports real
    // losses.
    for (const auto &e : _net->undelivered()) {
        if (!e.dropped || e.vnet != int(VNet::Request))
            continue;
        if (e.src < 0 || e.src >= _cfg.numCores)
            continue;
        const L1Controller &l1 = *_l1s[std::size_t(e.src)];
        if (!l1.lineOutstanding(lineOf(e.addr)))
            _net->markRecovered(e.id);
    }
}

SimResults
System::snapshot() const
{
    SimResults r;
    for (const ResultField &f : resultFields)
        if (f.stat)
            r.*f.count = _stats.sum(f.stat);
    r.cycles = _cycle;
    r.leakedMessages = _net->undeliveredCount();
    r.recoveryEnabled = _cfg.recovery.enabled;
    for (int v = 0; v < numVNets; ++v) {
        r.dupDelivered[std::size_t(v)] = _net->dupDelivered(v);
        r.oooDelivered[std::size_t(v)] = _net->oooDelivered(v);
    }
    r.tsoViolations =
        _checker ? _checker->violations().size() : 0;
    return r;
}

void
System::dumpState(std::ostream &os) const
{
    for (const auto &c : _cores)
        if (!c->done())
            c->dumpState(os);
    for (const auto &l1 : _l1s)
        l1->dumpState(os);
    for (const auto &llc : _llcs)
        llc->dumpState(os);
}

void
System::dumpStateToStderr() const
{
    std::ostringstream os;
    dumpState(os);
    // One gated write for the whole dump: it lands as one block
    // even while other workers and the progress reporter share
    // stderr.
    StderrGate::writeBlock(stderr, os.str().c_str());
}

std::uint64_t
System::peekCoherent(Addr addr) const
{
    std::uint64_t v = 0;
    bool writable = false;
    // An E/M private copy is the authoritative value.
    for (const auto &l1 : _l1s)
        if (l1->peekWord(addr, v, writable) && writable)
            return v;
    const BankId home = homeBank(lineOf(addr), _cfg.numCores);
    if (_llcs[std::size_t(home)]->peekWord(addr, v))
        return v;
    // A shared private copy matches the LLC/memory image anyway.
    return _memory.peek(addr);
}

std::string
describeConfig(const SystemConfig &cfg)
{
    std::ostringstream os;
    os << cfg.numCores << " cores, "
       << commitModeName(cfg.core.commitMode)
       << (cfg.core.lockdown ? " + WritersBlock protocol"
                             : " + base directory protocol")
       << " | IQ " << cfg.core.iqSize << " ROB " << cfg.core.robSize
       << " LQ " << cfg.core.lqSize << " SQ " << cfg.core.sqSize
       << " SB " << cfg.core.sbSize << " LDT " << cfg.core.ldtSize
       << " | L1 " << cfg.mem.l1Size / 1024 << "KB/"
       << cfg.mem.l1HitLatency << "cy L2 "
       << cfg.mem.l2Size / 1024 << "KB/" << cfg.mem.l2HitLatency
       << "cy LLC " << cfg.mem.llcBankSize / 1024 << "KB/bank/"
       << cfg.mem.llcHitLatency << "cy mem " << cfg.mem.memLatency
       << "cy";
    return os.str();
}

} // namespace wb

/**
 * @file
 * Private cache hierarchy (L1 + inclusive private L2) with the
 * core-side half of the WritersBlock MESI directory protocol.
 *
 * The coherence-bearing array is sized as the private L2; a tag-only
 * L1 filter selects between the two hit latencies. One outstanding
 * cacheable transaction per line (MSHR keyed by line address), plus
 * one reserved MSHR for uncacheable SoS bypass reads (GetU) as per
 * the paper's resource-partitioning rule (Section 3.5.2).
 *
 * Key WritersBlock behaviours implemented here:
 *  - invalidations/recalls query the core; a Nack answer is relayed
 *    to the home directory (with data when we were the owner) and the
 *    eventual lockdownLifted() call sends the AckRelease;
 *  - BlockedHint marks a write MSHR blocked so that SoS loads bypass
 *    it with a GetU on the reserved MSHR;
 *  - UData tear-off copies are consumable only by an ordered load;
 *    other waiting loads are told to retry when they become SoS;
 *  - E/M victim lines with active lockdowns are never evicted
 *    (deferring the fill instead), and S lines evict silently, so the
 *    sharer list always leads a future writer's invalidation to the
 *    load queue (Section 3.8).
 */

#ifndef WB_COHERENCE_L1_CONTROLLER_HH
#define WB_COHERENCE_L1_CONTROLLER_HH

#include <cstdint>
#include <deque>
#include <ostream>
#include <functional>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "coherence/config.hh"
#include "coherence/core_mem_if.hh"
#include "coherence/messages.hh"
#include "mem/cache_array.hh"
#include "mem/data_block.hh"
#include "network/network.hh"
#include "recovery/recovery.hh"
#include "sim/sim_object.hh"

namespace wb
{

class CheckerTap;

/** Private (L1+L2) cache controller of one core. */
class L1Controller : public SimObject
{
  public:
    L1Controller(std::string name, EventQueue *eq,
                 StatRegistry *stats, CoreId id,
                 const MemSystemConfig &cfg, Network *net,
                 int num_banks);

    void setCore(CoreMemIf *core) { _core = core; }
    /** Records globally visible stores (nullptr: no checker). */
    void setCheckerTap(CheckerTap *tap) { _checkerTap = tap; }

    /** Arm the recovery layer (duplicate filtering + ARQ re-issue);
     *  a default-constructed config keeps it disabled. */
    void setRecovery(const RecoveryConfig &rc) { _recovery = rc; }

    /** Incoming coherence message (from the node dispatcher). */
    void handleMessage(MsgPtr msg);

    /** Retry deferred fills / evictions. */
    void tick() override;

    /** First recovery-poll tick after @p t (a sleeping tile's time
     *  wake), maxTick when recovery is off. */
    Tick
    nextRecoveryPoll(Tick t) const
    {
        return _recovery.enabled
                   ? (t / _recovery.pollCycles + 1) * _recovery.pollCycles
                   : maxTick;
    }

    // ---------------- load path ----------------

    /**
     * Start a load access for word @p addr.
     *
     * On a hit the value binds after the L1/L2 hit latency via
     * CoreMemIf::loadResponse. On a miss the load joins (or creates)
     * an MSHR. @return false if no resource was available. A refusal
     * only counts a miss: it changes no state and does not touch the
     * tile, so a tile whose core only met refusals sleeps, and the
     * refusals of its skipped ticks are counted through
     * countRefusedLoads().
     */
    bool issueLoad(InstSeqNum seq, Addr addr);

    /**
     * The load became the SoS load. Re-drives a load that is parked
     * behind a blocked write MSHR, a private writeback, or a
     * tear-off retry, using the reserved uncacheable path when
     * needed (Section 3.5.2). Idempotent; the core calls again on
     * every tick its tile is awake.
     */
    void loadBecameSoS(InstSeqNum seq, Addr addr);

    /** Misses counted so far, refused issueLoad calls included. */
    std::uint64_t missCount() const { return _misses.value(); }

    /** Count @p n refused issueLoad calls of ticks a sleeping tile
     *  skipped. */
    void countRefusedLoads(std::uint64_t n) { _misses += n; }

    // ---------------- store path ----------------

    /**
     * Ask for write permission for @p line (store prefetch, or the
     * store at the head of the store buffer). Idempotent; the store
     * buffer asks again, and rechecks hasWritePermission(), on every
     * tick its tile is awake.
     */
    void requestWritePermission(Addr line);

    /** @return true if @p line is held in E or M state. */
    bool hasWritePermission(Addr line) const;

    /** @return true if this line's pending write MSHR is blocked by
     *  a WritersBlock at the directory (hint received). */
    bool isWriteBlocked(Addr line) const;

    /**
     * Perform a store (globally visible now). Requires write
     * permission. @return the new version of the word.
     */
    Version performStore(Addr addr, std::uint64_t value);

    /**
     * Perform an atomic read-modify-write. Requires write
     * permission. @p op maps the old value to the new value.
     * @return {old value, old version} (new version = old + 1).
     */
    std::pair<std::uint64_t, Version>
    performAtomic(Addr addr,
                  const std::function<std::uint64_t(std::uint64_t)> &op);

    // ---------------- lockdown plumbing ----------------

    /**
     * The core released the last lockdown for @p line after having
     * Nacked an invalidation: relay the AckRelease to the home
     * directory (Figure 3.B, step 4).
     */
    void lockdownLifted(Addr line);

    // ---------------- queries (tests, stats) ----------------

    /** Dump MSHR/writeback state and the seq of every load waiting
     *  in it (watchdog diagnostics). */
    void dumpState(std::ostream &os) const;

    /** Structured view of one in-flight transaction (crash report /
     *  per-MSHR age watchdog). */
    struct MshrInfo
    {
        Addr line = 0;
        const char *kind = "read"; //!< read | write | unc
        bool blocked = false;
        bool grantSeen = false;
        bool dataArrived = false;
        bool fillPending = false;
        int acksReceived = 0;
        int acksExpected = -1;
        std::size_t waiters = 0;
        Tick age = 0;
        unsigned retries = 0; //!< ARQ re-issues so far
    };

    /** All live MSHRs (demand + reserved SoS entry), sorted by line
     *  address so that reports are deterministic. */
    std::vector<MshrInfo> mshrInfos(Tick now_tick) const;

    /** Age of the oldest in-flight transaction; 0 when idle. */
    Tick oldestTransactionAge(Tick now_tick) const;

    bool lineCached(Addr line) const { return _array.find(line); }
    std::size_t pendingMshrs() const
    {
        return _mshrs.size() + (_sosMshr ? 1 : 0);
    }
    /** Evicted dirty lines awaiting their WBAck. */
    std::size_t writebackBufferUse() const { return _wbBuf.size(); }

    /** MSHR / writeback-buffer occupancy gauges for telemetry. */
    void registerMetrics(MetricsRegistry &metrics) override;

    /** @return true while any transaction (MSHR, SoS bypass, or
     *  writeback) is outstanding for @p line. The teardown
     *  reclassifier uses this to prove a dropped request was
     *  recovered by a re-issue. */
    bool
    lineOutstanding(Addr line) const
    {
        return _mshrs.count(line) != 0 ||
               (_sosMshr && _sosMshr->line == line) ||
               _wbBuf.count(line) != 0;
    }

    /** Line addresses currently cached here, sorted (equivalence
     *  checker input). */
    std::vector<Addr> cachedLines() const;

    /** Snapshot witness: both tag arrays, every MSHR (incl. the
     *  reserved SoS entry), the writeback buffer, parked loads and
     *  the dedup windows. Unordered maps are emitted in sorted key
     *  order (docs/CHECKPOINT.md). */
    void serializeState(ByteWriter &w) const;

    /** Functional debug read: true if the line is cached here, with
     *  the word value and whether this copy is writable (E/M). */
    bool
    peekWord(Addr addr, std::uint64_t &value, bool &writable) const
    {
        const PrivLine *pl = _array.find(lineOf(addr));
        if (!pl)
            return false;
        value = pl->data.readWord(addr);
        writable = pl->st != PState::S;
        return true;
    }

  private:
    enum class PState : std::uint8_t { S, E, M };

    struct PrivLine
    {
        PState st = PState::S;
        DataBlock data{};
    };

    struct WaitingLoad
    {
        InstSeqNum seq;
        Addr addr;
        Tick issued = 0; //!< for the miss-latency histogram
    };

    struct Mshr
    {
        enum class Kind { Read, Write, Unc };
        Kind kind = Kind::Read;
        Addr line = 0;
        bool blocked = false;     //!< BlockedHint received
        bool grantSeen = false;   //!< DataX/UpgradeAck arrived
        bool dataArrived = false; //!< Data/DataX payload arrived
        bool upgrade = false;     //!< sent Upgrade (data is local)
        bool exclusive = false;   //!< E grant
        int acksExpected = -1;    //!< valid once grantSeen
        int acksReceived = 0;
        bool fillPending = false; //!< data done; allocation retries
        Tick born = 0;            //!< allocation time (age watchdog)
        unsigned retries = 0;     //!< ARQ re-issues so far
        Tick lastAttempt = 0;     //!< issue time of the last attempt
        bool exhausted = false;   //!< retry budget spent
        DataBlock data{};
        std::vector<WaitingLoad> loads;
    };

    struct WbEntry
    {
        DataBlock data{};
        bool dirty = false;
        CohType putType = CohType::PutS; //!< for ARQ re-sends
        Tick born = 0;
        unsigned retries = 0;
        Tick lastAttempt = 0;
        bool exhausted = false;
    };

    // message handlers
    void handleInv(CohMsg &m);
    void handleRecall(CohMsg &m);
    void handleFwdGetS(CohMsg &m);
    void handleFwdGetX(CohMsg &m);
    void handleFwdGetU(CohMsg &m);
    void handleData(CohMsg &m);
    void handleDataX(CohMsg &m);
    void handleUpgradeAck(CohMsg &m);
    void handleAck(CohMsg &m);
    void handleUData(CohMsg &m);
    void handleBlockedHint(CohMsg &m);
    void handleWbDone(CohMsg &m);

    /** Bind a load's value and notify the core. */
    void bindLoad(const WaitingLoad &wl, const DataBlock &data,
                  LoadSource src);

    /** Schedule a hit callback after @p lat cycles. */
    void scheduleHit(InstSeqNum seq, Addr addr, Tick lat,
                     LoadSource src);

    /** Complete a write MSHR if grant+data+acks are all in. */
    void maybeCompleteWrite(Mshr &m);

    /** Try to place MSHR data into the array; may evict. */
    bool tryFill(Mshr &m);

    /**
     * Make room in the set of @p line. @return true if a way is (now)
     * free. May issue PutE/PutM through the writeback buffer.
     */
    bool makeRoom(Addr line);

    /** Issue the reserved-MSHR uncacheable read for a SoS load. */
    bool issueGetU(InstSeqNum seq, Addr addr);

    // ---------------- recovery (ARQ) ----------------

    /** Periodic scan for stalled transactions; re-issues requests
     *  whose (backed-off) retry timeout expired. */
    void recoveryScan();

    /** @return true if the entry timed out and has budget left;
     *  bumps the retry bookkeeping as a side effect. */
    bool retryDue(Tick &last_attempt, Tick born, unsigned &retries,
                  bool &exhausted);

    /** Re-send the original request of a stalled MSHR. */
    void reissueMshr(Mshr &m);

    /** Re-send the Put of a stalled writeback-buffer entry. */
    void reissueWb(Addr line, WbEntry &wb);

    /** A transaction that needed @p retries re-issues completed. */
    void
    noteRecovered(unsigned retries)
    {
        if (retries > 0)
            ++_arqRecovered;
    }

    /** Next-line prefetch after a demand miss (if enabled). */
    void maybePrefetch(Addr next_line);

    /** Queue a load (or a fill) for tick() to retry. */
    void
    retryLoad(const WaitingLoad &wl)
    {
        _loadRetryQ.push_back(wl);
        touch();
    }
    void
    retryFill(Mshr &m)
    {
        m.fillPending = true;
        _retryFills.push_back(m.line);
        touch();
    }

    /** Drop a line from both tag arrays (invalidation/recall). */
    void invalidateLine(Addr line);

    /** Respond to an invalidation-style message; true if Nacked. */
    bool answerInvalidation(CohMsg &m, bool was_owner,
                            const DataBlock *data, bool dirty);

    void touchL1(Addr line);
    MsgPtr make(CohType t, Addr line, int dst);
    int home(Addr line) const;
    void send(MsgPtr msg);

    CoreId _id;
    MemSystemConfig _cfg;
    Network *_net;
    int _numBanks;
    CoreMemIf *_core = nullptr;
    CheckerTap *_checkerTap = nullptr;
    RecoveryConfig _recovery{};
    DedupFilter _dedup;

    CacheArray<PrivLine> _array;  //!< L2-sized, coherence-bearing
    CacheArray<char> _l1Tags;     //!< L1-sized latency filter

    std::unordered_map<Addr, Mshr> _mshrs;
    std::optional<Mshr> _sosMshr; //!< reserved for SoS GetU
    std::unordered_map<Addr, WbEntry> _wbBuf;
    std::unordered_map<Addr, std::vector<WaitingLoad>> _wbWaiters;
    std::vector<Addr> _retryFills; //!< lines with fillPending MSHRs
    /** Accepted loads whose internal re-issue failed transiently
     *  (resources full); retried every cycle until re-accepted. */
    std::vector<WaitingLoad> _loadRetryQ;

    // stats
    Counter &_hitsL1;
    Counter &_hitsL2;
    Counter &_misses;
    Counter &_getS;
    Counter &_getX;
    Counter &_upgrades;
    Counter &_getU;
    Counter &_invsReceived;
    Counter &_nacksSent;
    Counter &_tearoffUsed;
    Counter &_tearoffRetry;
    Counter &_blockedHints;
    Counter &_puts;
    Counter &_putsShared;
    Counter &_silentEvictions;
    Counter &_stores;
    Counter &_ackReleases;
    Counter &_prefetches;
    Counter &_dedupHits;       //!< duplicated deliveries discarded
    Counter &_arqReissues;     //!< timeout-driven request re-sends
    Counter &_arqRecovered;    //!< transactions completed after >=1 retry
    Counter &_orphansAbsorbed; //!< recovery-gated orphan responses
    Histogram &_missLatency;
    Histogram &_arqBackoff;    //!< backoff delay per re-issue
};

} // namespace wb

#endif // WB_COHERENCE_L1_CONTROLLER_HH

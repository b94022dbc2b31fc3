/**
 * @file
 * Shared LLC bank with an embedded full-map directory — the home
 * side of the WritersBlock MESI protocol.
 *
 * Directory states:
 *   I         line cached at the LLC only (or being fetched)
 *   S         LLC data valid, >= 1 private sharers (list may be a
 *             superset because shared lines evict silently)
 *   EM        one private owner (E or M); LLC data possibly stale
 *   BusyMem   memory fetch in flight
 *   BusyRd    read transaction awaiting Unblock (and CopyData on a
 *             3-hop owner forward)
 *   BusyWr    write transaction: invalidations out, awaiting Unblock
 *   WB        *WritersBlock* (Section 3.3): an invalidation was
 *             Nacked by a locked-down core. Writes are deferred,
 *             reads are served uncacheable tear-off copies, released
 *             acks are redirected to the pending writer.
 *   Recalling directory/LLC eviction: recalls out
 *   WBEvict   recall hit a lockdown: entry parks in the eviction
 *             buffer, behaving like WB, until the AckRelease
 *             (Section 3.5.1)
 *
 * Entries under eviction move to a bounded eviction buffer so that a
 * miss can claim the directory slot immediately; when the buffer is
 * full, reads fall back to uncacheable service straight from memory
 * — the deadlock-avoidance strategy of Section 3.5.1.
 */

#ifndef WB_COHERENCE_LLC_BANK_HH
#define WB_COHERENCE_LLC_BANK_HH

#include <cstdint>
#include <deque>
#include <ostream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "coherence/config.hh"
#include "coherence/main_memory.hh"
#include "coherence/messages.hh"
#include "mem/cache_array.hh"
#include "network/network.hh"
#include "recovery/recovery.hh"
#include "sim/sim_object.hh"

namespace wb
{

/** One LLC bank + directory slice. */
class LLCBank : public SimObject
{
  public:
    LLCBank(std::string name, EventQueue *eq, StatRegistry *stats,
            BankId id, const MemSystemConfig &cfg, Network *net,
            MainMemory *memory);

    /** Incoming coherence message. */
    void handleMessage(MsgPtr msg);

    /** Drain the allocation retry queue. */
    void tick() override;

    // introspection for tests
    /** Dump transient directory state (watchdog diagnostics). */
    void dumpState(std::ostream &os) const;

    bool inWritersBlock(Addr line) const;
    std::size_t evictionBufferUse() const { return _evbuf.size(); }
    std::size_t retryQueueUse() const { return _retryQueue.size(); }

    /** Eviction-buffer / retry-queue occupancy gauges. */
    void registerMetrics(MetricsRegistry &metrics) override;

    /** Structured view of one in-flight directory transaction
     *  (crash report / transaction age watchdog). */
    struct TxnInfo
    {
        Addr line = 0;
        const char *state = "I";
        int owner = -1;
        int reqor = -1;
        int recallPending = 0;
        std::size_t deferred = 0;
        bool evbuf = false;
        Tick age = 0;
    };

    /** Every entry in a transient state (incl. WritersBlock and the
     *  eviction buffer), sorted by line for deterministic reports. */
    std::vector<TxnInfo> transientInfos(Tick now_tick) const;

    /** Age of the oldest transient directory entry; 0 when all
     *  entries are stable. Requests parked in the retry queue are
     *  not counted, however long they wait (ROADMAP item 5). */
    Tick oldestTransactionAge(Tick now_tick) const;

    /** Functional debug read of the LLC copy (may be stale for EM
     *  lines). @return false if the line has no entry with data. */
    bool peekWord(Addr addr, std::uint64_t &value) const;

    /** Arm duplicate-safe message handling: re-seen requests are
     *  answered idempotently instead of tripping protocol panics. */
    void setRecovery(const RecoveryConfig &rc) { _recovery = rc; }

    /** Every line this bank holds data for (array + eviction
     *  buffer), sorted — the end-state equivalence checker walks
     *  this to compare final cache-line values across runs. */
    std::vector<Addr> cachedLines() const;

    /** Snapshot witness: directory array, eviction buffer, busy-line
     *  set, retry queue (deferred/parked messages encoded by their
     *  logical coherence fields), transaction counter and dedup
     *  windows. Unordered containers are emitted in sorted key order
     *  (docs/CHECKPOINT.md). */
    void serializeState(ByteWriter &w) const;

  private:
    enum class DirState : std::uint8_t
    {
        I, S, EM, BusyMem, BusyRd, BusyWr, WB, Recalling, WBEvict
    };

    struct DirEntry
    {
        DirState state = DirState::I;
        bool haveData = false;
        bool dirty = false;
        DataBlock data{};
        SharerSet sharers = 0;
        int owner = -1;

        // transaction bookkeeping
        int reqor = -1;
        std::uint64_t txnId = 0;
        bool grantExclusive = false;
        bool copyDataPending = false;
        bool unblockSeen = false;
        bool oldOwnerRetained = false;
        int oldOwner = -1;
        int recallPending = 0;
        bool hintSent = false;
        bool evicting = false; //!< entry lives in the eviction buffer
        Tick busySince = 0;    //!< last transition into a transient
                               //!< state (transaction age watchdog)
        /** Requests waiting for the line, oldest first. Nearly
         *  always empty, and a vector allocates nothing while
         *  empty. */
        std::vector<MsgPtr> deferred;
    };

    // request handlers
    void handleRequest(MsgPtr msg);
    void handleGetS(DirEntry &e, CohMsg &m);
    void handleWrite(DirEntry &e, CohMsg &m);
    void handleGetU(DirEntry &e, CohMsg &m);
    void handlePut(DirEntry &e, CohMsg &m);
    // response handlers
    void handleInvNack(DirEntry &e, CohMsg &m);
    void handleRecallAck(DirEntry &e, CohMsg &m);
    void handleAckRelease(DirEntry &e, CohMsg &m);
    void handleCopyData(DirEntry &e, CohMsg &m);
    void handleUnblock(DirEntry &e, CohMsg &m);

    DirEntry *lookup(Addr line);
    const DirEntry *lookup(Addr line) const;

    /**
     * Allocate a directory entry, evicting if necessary.
     * @return nullptr if no way can be freed right now.
     */
    DirEntry *allocate(Addr line);

    /** Begin recalling every private copy of an entry under
     *  eviction; the entry must already sit in the eviction buffer. */
    void startRecall(DirEntry &e, Addr line);

    /** Eviction done: flush to memory, drop, re-dispatch deferred. */
    void finishEviction(Addr line);

    /** Enter WritersBlock: serve deferred reads, hint writers. */
    void enterWritersBlock(DirEntry &e, Addr line, DirState st);

    void maybeFinishRead(DirEntry &e, Addr line);
    void finishTransaction(DirEntry &e, Addr line);
    void replayDeferred(Addr line);

    void grantRead(DirEntry &e, CohMsg &m, bool exclusive);
    void sendUData(const DataBlock &data, Addr line, int dst,
                   bool from_getu, Tick extra_lat = 0);
    void sendBlockedHint(Addr line, int dst);
    void fetchFromMemory(DirEntry &e, Addr line);
    void serveUncacheableFromMemory(CohMsg &m);

    MsgPtr make(CohType t, Addr line, int dst);
    void send(MsgPtr msg, Tick lat = 1);
    std::uint64_t newTxn() { return ++_txnCounter; }

    BankId _id;
    MemSystemConfig _cfg;
    Network *_net;
    MainMemory *_memory;

    CacheArray<DirEntry> _array;
    std::unordered_map<Addr, DirEntry> _evbuf;

    /** Transaction-age candidates: every line that entered a
     *  transient state since the watchdog last saw it stable.
     *  Lazily swept by oldestTransactionAge(), which keeps the
     *  per-poll cost O(active transactions) instead of a full
     *  directory scan; transientInfos() reads it for the same
     *  reason. Mutable: the sweep is logically const. */
    mutable std::unordered_set<Addr> _busyLines;

    /** Record a transition into a transient directory state. */
    void noteBusy(Addr line) { _busyLines.insert(line); }
    std::deque<MsgPtr> _retryQueue;
    std::uint64_t _txnCounter = 0;
    RecoveryConfig _recovery{};
    DedupFilter _dedup; //!< per-source duplicate-delivery filter

    // stats
    Counter &_reads;
    Counter &_writes;
    Counter &_wbEntries;        //!< BusyWr/Recalling -> WB/WBEvict
    Counter &_wbEncounters;     //!< writes deferred at a WritersBlock
    Counter &_uncacheableReads; //!< UData responses served
    Counter &_redirAcks;
    Counter &_recalls;
    Counter &_memFetches;
    Counter &_memWritebacks;
    Counter &_deferrals;
    Counter &_staleDrops;
    Counter &_evbufFallbacks;   //!< uncacheable due to full buffer
    Counter &_dedupHits;        //!< duplicated deliveries discarded
    Counter &_dupRequestsIgnored; //!< re-seen requests dropped
                                  //!< idempotently under recovery
};

} // namespace wb

#endif // WB_COHERENCE_LLC_BANK_HH

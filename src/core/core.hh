/**
 * @file
 * Out-of-order, TSO, x86-like core model.
 *
 * Pipeline: fetch (branch-predicted, wrong-path execution is real) ->
 * dispatch into ROB/IQ/LQ/SQ -> dataflow issue -> execute ->
 * commit (in-order, safe OoO, or OoO+WritersBlock) -> store buffer.
 *
 * The consistency machinery follows the paper:
 *  - a load performing while an older load is non-performed becomes
 *    M-speculative and (in a lockdown core) enters lockdown;
 *  - invalidations query the LQ/LDT: squash-and-re-execute cores
 *    squash, lockdown cores set the "seen" bit and Nack;
 *  - the SoS load (oldest non-performed) is tracked continuously;
 *    when it performs, the ordered frontier advances, completing
 *    loads in program order, releasing lockdowns (and sending the
 *    withheld invalidation acks), and feeding the TSO checker;
 *  - OoO+WB commit exports lockdowns of committed loads to the LDT
 *    (Section 4.2) — release duty is keyed to the frontier, which is
 *    exactly the effect of the paper's guardian-bitmap passing;
 *  - loads younger than a non-performed atomic never lock down: an
 *    invalidation squashes them instead (Section 3.7).
 */

#ifndef WB_CORE_CORE_HH
#define WB_CORE_CORE_HH

#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <ostream>
#include <deque>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "coherence/core_mem_if.hh"
#include "sim/bytes.hh"
#include "coherence/l1_controller.hh"
#include "core/config.hh"
#include "core/seq_table.hh"
#include "isa/program.hh"
#include "mem/addr.hh"
#include "sim/sim_object.hh"

namespace wb
{

class CheckerTap;

/** Simple 2-bit bimodal branch predictor. */
class BranchPredictor
{
  public:
    explicit BranchPredictor(std::size_t entries = 1024)
        : _table(entries, 1)
    {}

    bool
    predict(int pc) const
    {
        return _table[index(pc)] >= 2;
    }

    void
    update(int pc, bool taken)
    {
        std::uint8_t &c = _table[index(pc)];
        if (taken && c < 3)
            ++c;
        else if (!taken && c > 0)
            --c;
    }

    /** Snapshot witness: the full 2-bit counter table. */
    void
    serializeState(ByteWriter &w) const
    {
        w.u64(_table.size());
        for (std::uint8_t c : _table)
            w.u8(c);
    }

  private:
    std::size_t index(int pc) const
    {
        return std::size_t(pc) % _table.size();
    }
    std::vector<std::uint8_t> _table;
};

/**
 * Counting filter over word addresses: how many entries of a store
 * structure hold a word in each of 1024 slots (word number mod 1024,
 * so words 8 KiB apart share a slot). A zero slot proves no entry
 * holds the word; a nonzero one only says a walk may find it.
 */
class WordFilter
{
  public:
    bool mayHold(Addr word) const { return _count[slot(word)] != 0; }
    void add(Addr word) { ++_count[slot(word)]; }

    void
    remove(Addr word)
    {
        std::uint32_t &c = _count[slot(word)];
        assert(c > 0 && "word filter slot underflow");
        --c;
    }

  private:
    static constexpr std::size_t slots = 1024;
    static std::size_t slot(Addr word)
    {
        return std::size_t(word / wordBytes) % slots;
    }
    std::array<std::uint32_t, slots> _count{};
};

/** The out-of-order core. */
class Core : public SimObject, public CoreMemIf
{
  public:
    Core(std::string name, EventQueue *eq, StatRegistry *stats,
         CoreId id, const CoreConfig &cfg, L1Controller *l1,
         const Program *program);

    /** Records completed loads (nullptr: no checker). */
    void setCheckerTap(CheckerTap *tap) { _checkerTap = tap; }

    /**
     * Observer of every committed (retired) instruction:
     * (seq, pc, instruction, effective address). @p ea is
     * invalidAddr for non-memory instructions. Commit can be out of
     * program order in the OoO modes, but seq order *is* program
     * order among committed instructions, so a recorder sorting by
     * seq reconstructs the per-thread dynamic stream exactly
     * (src/trace/trace_recorder.hh). Squashed instructions never
     * reach the hook. Unset (the default) costs one branch per
     * retire.
     */
    using CommitHook = std::function<void(
        InstSeqNum seq, int pc, const Instr &in, Addr ea)>;
    void setCommitHook(CommitHook hook)
    {
        _commitHook = std::move(hook);
    }

    /** One pipeline cycle. */
    void tick() override;

    /**
     * What one more tick adds to the counters while nothing it reads
     * changes: a cycle, the stall counter (none once halted) and the
     * refused issueLoad calls (L1 misses) the last tick made. Valid
     * right after a tick that touched nothing, which the next tick
     * would repeat exactly; the System takes it when the tile falls
     * asleep (docs/PERFORMANCE.md, "Quiet tiles sleep").
     */
    struct QuietTick
    {
        Counter *stall = nullptr;
        std::uint64_t refusals = 0;
    };
    QuietTick quietTick();

    /** Count @p n skipped ticks described by @p q in bulk. */
    void countQuietTicks(const QuietTick &q, Tick n);

    /** Cycle a stalled fetch resumes at (a sleeping tile's time
     *  wake), maxTick when fetch is not waiting on the clock. */
    Tick fetchWakeTick() const;

    /** @return true when Halt has committed and the SB drained. */
    bool done() const;

    std::uint64_t instructionsCommitted() const { return _commits; }

    // ---- CoreMemIf ----
    InvResponse coherenceInvalidation(Addr line) override;
    void loadResponse(InstSeqNum seq, Addr addr,
                      std::uint64_t value, Version ver,
                      LoadSource src) override;
    void loadMustRetry(InstSeqNum seq, Addr addr) override;
    bool coherenceLockdownQuery(Addr line) const override;
    bool isLoadOrdered(InstSeqNum seq) const override;

    // ---- introspection (tests) ----
    /** Dump pipeline state (watchdog diagnostics). */
    void dumpState(std::ostream &os) const;

    /** Structured pipeline summary for crash reports. */
    struct PipelineSnapshot
    {
        int pc = 0;
        bool halted = false;
        std::uint64_t commits = 0;
        std::size_t rob = 0;
        std::size_t iq = 0;
        std::size_t lq = 0;
        std::size_t sq = 0;
        std::size_t sb = 0;
        std::size_t ldt = 0;
        InstSeqNum robHead = invalidSeqNum;
        InstSeqNum frontier = invalidSeqNum;
        std::size_t locksHeld = 0; //!< lines under active lockdown
        std::size_t locksOwed = 0; //!< lines owing an AckRelease
    };
    PipelineSnapshot pipelineSnapshot() const;

    /** Pipeline-occupancy gauges for live telemetry. */
    void registerMetrics(MetricsRegistry &metrics) override;

    /** Snapshot witness: architectural state plus every pipeline
     *  structure (ROB/IQ/LQ/SQ/SB/LDT, rename map, predictor,
     *  lockdowns, pending checks, fences, frontier). Unordered
     *  containers are emitted in sorted key order so the encoding
     *  is canonical (docs/CHECKPOINT.md). */
    void serializeState(ByteWriter &w) const;

    CoreId id() const { return _id; }
    std::uint64_t regValue(Reg r) const { return _archRegs[r]; }
    bool halted() const { return _halted; }

  private:
    /**
     * An entry's consumers, (seq, source slot) in the order they
     * were added. Move-assignment copies the elements into this
     * list's own buffer instead of taking the source's, so a ROB
     * slot that SeqTable::emplace() reuses keeps the capacity its
     * earlier occupants grew and a later push allocates only past it.
     */
    struct ConsumerList : std::vector<std::pair<InstSeqNum, int>>
    {
        ConsumerList() = default;
        ConsumerList(const ConsumerList &) = default;
        ConsumerList(ConsumerList &&) = default;
        ConsumerList &operator=(const ConsumerList &) = default;
        ConsumerList &
        operator=(ConsumerList &&o)
        {
            assign(o.begin(), o.end());
            return *this;
        }
    };

    struct RobEntry
    {
        InstSeqNum seq;
        int pc;
        Instr in;
        // dataflow
        std::uint64_t srcVal[2] = {0, 0};
        bool srcReady[2] = {true, true};
        InstSeqNum prevWriter = invalidSeqNum; //!< for map rewind
        /** Youngest IQ entry dispatched before this one
         *  (stall-on-use issue order; rewound like prevWriter). */
        InstSeqNum prevInIq = invalidSeqNum;
        ConsumerList consumers;
        std::uint64_t result = 0;
        bool inIq = false;
        bool issued = false;
        bool executed = false;  //!< result/addr known (loads: bound)
        // branches
        bool predictedTaken = false;
        // memory
        Addr addr = invalidAddr;
        bool addrReady = false;
    };

    struct LqEntry
    {
        int pc = 0;
        Addr addr = invalidAddr;
        bool isAtomic = false;
        bool issued = false;     //!< request handed to the L1
        bool performed = false;
        bool forwarded = false;
        bool mustRetry = false;  //!< unusable tear-off; reissue as SoS
        bool lockdown = false;   //!< M-speculative
        bool seen = false;       //!< S bit
        std::uint64_t value = 0;
        Version version = 0;
    };

    struct SqEntry
    {
        Addr addr = invalidAddr;
        bool addrReady = false;
        bool isAtomic = false;
    };

    struct SbEntry
    {
        InstSeqNum seq;
        Addr addr;
        std::uint64_t data;
    };

    struct LdtEntry
    {
        Addr line;
        bool seen = false;
    };

    struct PendingCheck
    {
        Addr addr;
        Version version;
        bool forwarded;
        Addr lockdownLine; //!< invalidAddr if none
    };

    struct LockInfo
    {
        int count = 0;
        bool owed = false;
        Tick firstSet = 0; //!< for the duration histogram
    };

    // pipeline stages
    void driveFence();
    void fetchAndDispatch();
    void issueFromIq();
    void execute(InstSeqNum seq);
    void memIssue();
    void drainStoreBuffer();
    void driveAtomic();
    void commit();
    void driveSoS();

    /** The stall counter a tick that retires nothing charges. */
    Counter &stallCounter();

    // commit helpers
    void retireEntry(RobEntry &e);
    /** An entry the commit scan passes without effect: an ALU op
     *  that has not executed, or outside OooSafe a load that has
     *  not bound (docs/PERFORMANCE.md, "Commit candidates"). */
    bool passive(const RobEntry &e) const;
    /** Mark @p e executed; a passive entry becomes a candidate. */
    void markExecuted(RobEntry &e);

    /** Drop @p seq from the SQ, and its word from _sqWords if it had
     *  its address. */
    void sqErase(InstSeqNum seq);

    // squash machinery
    void squashFrom(InstSeqNum first_bad, int new_pc,
                    Counter &reason);

    // dataflow helpers
    void captureSources(RobEntry &e);
    void wakeConsumers(RobEntry &e);
    bool ready(const RobEntry &e) const;

    // load/store helpers
    void bindLoad(InstSeqNum seq, LqEntry &lq, std::uint64_t value,
                  Version ver, bool forwarded);
    void recomputeFrontier();
    void releaseLockdown(Addr line);
    InstSeqNum oldestPendingAtomic() const;
    bool orderedAtOrBefore(InstSeqNum seq) const;

    RobEntry *robFind(InstSeqNum seq);

    CoreId _id;
    CoreConfig _cfg;
    L1Controller *_l1;
    const Program *_prog;
    CheckerTap *_checkerTap = nullptr;
    CommitHook _commitHook;

    // architectural state
    std::array<std::uint64_t, numRegs> _archRegs{};
    std::array<InstSeqNum, numRegs> _archWriter{};
    int _pc = 0;
    bool _halted = false;
    bool _fetchBlocked = false; //!< Halt fetched, not yet committed
    Tick _fetchStallUntil = 0;

    // structures (flat seq-indexed rings; docs/PERFORMANCE.md)
    SeqTable<RobEntry> _rob;
    int _iqCount = 0; //!< IQ occupancy: dispatched, not yet issued
    /** IQ entries whose sources are ready, ascending seq. */
    std::vector<InstSeqNum> _ready;
    InstSeqNum _lastInIq = invalidSeqNum; //!< RobEntry::prevInIq
    /** The ROB entries that are not passive, plain stores aside,
     *  ascending seq: with _storeCands the only entries the commit
     *  scan visits. Derived state. */
    std::vector<InstSeqNum> _commitCands;
    /** The plain stores in the ROB, ascending seq. Derived state. */
    std::vector<InstSeqNum> _storeCands;
    /** The plain stores without their address, ascending seq: where
     *  a scan that stopped walking stores must end. Derived state. */
    std::vector<InstSeqNum> _addrPendingStores;
    /** Atomics dispatched and not yet performed; driveAtomic() has
     *  nothing to do while it is zero. Derived state. */
    int _pendingAtomics = 0;
    SeqTable<LqEntry> _lq;
    /** Loads that received their address, ascending seq: a superset
     *  of the loads memIssue() may issue (those that stopped
     *  qualifying are dropped when it next reaches them). */
    std::vector<InstSeqNum> _loadCands;
    SeqTable<SqEntry> _sq;
    std::deque<SbEntry> _sb;
    /** Exported lockdowns of committed loads. OoO commit inserts
     *  out of seq order, so this is a small flat list, not a ring. */
    std::vector<std::pair<InstSeqNum, LdtEntry>> _ldt;
    std::array<InstSeqNum, numRegs> _regMap{};
    BranchPredictor _bp;

    // consistency bookkeeping
    std::unordered_map<Addr, LockInfo> _locks;
    std::map<InstSeqNum, PendingCheck> _pendingChecks;
    InstSeqNum _frontier = invalidSeqNum; //!< oldest non-performed ld

    /** The L1 misses the last tick made: in a tick that touched
     *  nothing, only refused issueLoad calls. Derived state: not in
     *  the snapshot witness. */
    std::uint64_t _tickRefusals = 0;

    /** Words of the address-ready SQ entries (stores and atomics)
     *  and of the SB entries: memIssue walks a queue for a load only
     *  when its filter may hold the load's word. Derived state. */
    WordFilter _sqWords;
    WordFilter _sbWords;

    /** Pending (non-executed) fences, oldest first. */
    std::set<InstSeqNum> _fences;

    InstSeqNum _nextSeq = 1;
    InstSeqNum _lastDrainedStore = 0; //!< TSO st->st order assert

    std::uint64_t _commits = 0;

    // stats
    Counter &_cycles;
    Counter &_committed;
    Counter &_loadsExecuted;
    Counter &_storesCommitted;
    Counter &_atomicsCommitted;
    Counter &_stallRobFull;
    Counter &_stallLqFull;
    Counter &_stallSqFull;
    Counter &_stallOther;
    Counter &_squashBranch;
    Counter &_squashDspec;
    Counter &_squashInv;
    Counter &_squashedInstrs;
    Counter &_forwardedLoads;
    Counter &_lockdownsSet;
    Counter &_lockdownsSeen;
    Counter &_ldtExports;
    Counter &_oooCommits;
    Counter &_tearoffBinds;
    Counter &_branchMispredicts;
    Counter &_branches;
    Histogram &_lockdownCycles; //!< set -> release (footnote 2)
};

} // namespace wb

#endif // WB_CORE_CORE_HH

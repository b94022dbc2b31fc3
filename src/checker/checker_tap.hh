/**
 * @file
 * Per-tile buffer between the protocol/core hooks and the global
 * TSO checker.
 *
 * The checker's watermark algorithm consumes a single global stream
 * of store-visibility and load-completion events. Under sharding
 * those events originate on different host threads, so each tile
 * records into its own tap (no shared state), and the epoch barrier
 * replays all taps into the checker in the canonical
 * (tick, tile, local-order) order.
 *
 * Soundness of the tile-major same-tick tie-break: a store on tile A
 * can only be observed by a load on tile B (A != B) after at least
 * one network hop, i.e. strictly later ticks, so no cross-tile
 * store->load pair ever shares a tick. Same-tick events of one tile
 * keep their true relative order via the local sequence number, and
 * per-core program order of loads is preserved for the same reason —
 * making the replayed stream equivalent to the live interleaving for
 * every ordering the checker is sensitive to.
 */

#ifndef WB_CHECKER_CHECKER_TAP_HH
#define WB_CHECKER_CHECKER_TAP_HH

#include <cstdint>
#include <vector>

#include "mem/data_block.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace wb
{

/** Records one tile's checker-relevant events for barrier replay
 *  (its L1's stores, its core's loads; TsoChecker's arguments). */
class CheckerTap
{
  public:
    struct Rec
    {
        Tick when = 0;
        std::uint64_t localSeq = 0;
        bool isStore = false;
        CoreId core = 0;
        Addr addr = 0;
        std::uint64_t value = 0;
        Version ver = 0;
        bool forwarded = false;
    };

    /** Bind the owning shard's queue (for timestamps). */
    void bind(EventQueue *eq) { _eq = eq; }

    void
    storePerformed(CoreId core, Addr addr, std::uint64_t value,
                   Version ver)
    {
        _recs.push_back(Rec{_eq->now(), _nextSeq++, true, core, addr,
                            value, ver, false});
    }

    void
    loadCompleted(CoreId core, Addr addr, Version ver, bool forwarded)
    {
        _recs.push_back(Rec{_eq->now(), _nextSeq++, false, core, addr,
                            0, ver, forwarded});
    }

    /** Barrier phase: hand the buffered records over (sorted by
     *  (when, localSeq) by construction) and reset the buffer. */
    std::vector<Rec>
    take()
    {
        std::vector<Rec> out = std::move(_recs);
        _recs.clear();
        return out;
    }

  private:
    EventQueue *_eq = nullptr;
    std::uint64_t _nextSeq = 0; //!< never reset: stable local order
    std::vector<Rec> _recs;
};

} // namespace wb

#endif // WB_CHECKER_CHECKER_TAP_HH

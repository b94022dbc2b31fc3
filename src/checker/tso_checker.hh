/**
 * @file
 * Dynamic TSO checker.
 *
 * Every globally-visible store is stamped with a per-word version and
 * the tick at which it became visible. Because a directory protocol
 * makes each write atomically visible (all stale copies invalidated
 * or protected by a lockdown before the writer performs), version k
 * of a word is the machine-wide current value during the real-time
 * interval [start(k), start(k+1)).
 *
 * A load that binds version k can legally occupy any point of that
 * interval in memory order. TSO requires the loads of one core to
 * appear in program order, so a core's completed loads must admit a
 * non-decreasing assignment of points to intervals. Processing loads
 * in program order, that is feasible iff every load's interval ends
 * strictly after the running maximum of older loads' interval starts
 * (the *watermark*). The illegal outcome of Table 1/2 — an older
 * load binding a new value while a younger load binds a value that
 * died before it — is exactly a watermark violation.
 *
 * Loads forwarded from the local store queue/buffer read values that
 * are not globally visible yet (TSO's store->load relaxation); they
 * are recorded but neither checked against nor advance the watermark.
 *
 * The checker also validates write serialisation: versions of a word
 * must be performed exactly in sequence 1,2,3,... — a strong protocol
 * invariant (two simultaneous owners would break it immediately).
 */

#ifndef WB_CHECKER_TSO_CHECKER_HH
#define WB_CHECKER_TSO_CHECKER_HH

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "mem/addr.hh"
#include "mem/data_block.hh"
#include "sim/types.hh"

namespace wb
{

/** One detected consistency (or protocol) violation. */
struct TsoViolation
{
    CoreId core;
    Addr addr;
    Version version;
    Tick when;
    std::string what;
};

/** Dynamic TSO checker; see file comment for the algorithm.
 *
 *  The checker is a pure event consumer with no tie to a particular
 *  event queue: the feeder stamps the current simulated time with
 *  setTime() before dispatching events. Under sharding, per-tile
 *  CheckerTaps buffer events and replay them here in canonical
 *  (tick, tile, local-order) order at each epoch barrier. */
class TsoChecker
{
  public:
    explicit TsoChecker(int num_cores,
                        std::size_t max_versions_per_word = 4096);

    /** Simulated time used to stamp subsequently reported
     *  violations. */
    void setTime(Tick now) { _now = now; }

    /** Trace mask (ObsConfig::trace): LogFlag::Checker prints each
     *  violation as it is found. */
    void setTraceMask(unsigned mask) { _traceMask = mask; }

    /** A store became globally visible: @p addr holds @p value. */
    void storePerformed(CoreId core, Addr addr, std::uint64_t value,
                        Version ver);

    /**
     * A load completed (it is performed and all older loads have
     * performed). MUST be called in program order per core.
     *
     * @param forwarded value came from the local SQ/SB.
     */
    void loadCompleted(CoreId core, Addr addr, Version ver,
                       bool forwarded);

    bool clean() const { return _violations.empty(); }
    const std::vector<TsoViolation> &violations() const
    {
        return _violations;
    }

    std::uint64_t loadsChecked() const { return _loadsChecked; }
    std::uint64_t storesTracked() const { return _storesTracked; }

  private:
    /**
     * Timestamps are global store sequence numbers (GSN): one unique,
     * monotonically increasing value per globally-visible store. GSN
     * order equals real-time visibility order, but unlike raw ticks
     * it never produces same-instant ties, so the strict interval
     * comparison below cannot false-positive on same-cycle events.
     */
    using Gsn = std::uint64_t;
    static constexpr Gsn maxGsn = ~Gsn(0);

    struct WordHistory
    {
        Version firstVer = 1;    //!< version of starts.front()
        std::deque<Gsn> starts;  //!< visibility GSN per version
        Version lastVer = 0;     //!< latest performed version
    };

    /** start GSN of @p ver; 0 for the initial version. */
    Gsn startOf(const WordHistory &h, Version ver) const;

    /** end GSN of @p ver (start of ver+1), or maxGsn if live. */
    Gsn endOf(const WordHistory &h, Version ver) const;

    void report(CoreId core, Addr addr, Version ver,
                const std::string &what);

    Tick _now = 0;
    unsigned _traceMask = 0;
    std::size_t _maxVersions;
    std::unordered_map<Addr, WordHistory> _words;
    Gsn _gsn = 0;
    std::vector<Gsn> _watermark; //!< per core
    std::vector<TsoViolation> _violations;
    std::uint64_t _loadsChecked = 0;
    std::uint64_t _storesTracked = 0;
};

} // namespace wb

#endif // WB_CHECKER_TSO_CHECKER_HH

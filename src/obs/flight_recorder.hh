/**
 * @file
 * Flight recorder: a fixed-capacity ring buffer of structured
 * simulation events, plus per-transaction latency-breakdown
 * histograms.
 *
 * Components emit events through WB_EVENT (or the txn/lock helpers)
 * against the FlightRecorder pointer every SimObject carries; a null
 * pointer — the default — makes every hook a single predictable
 * branch, mirroring the WB_TRACE discipline, so runs with
 * observability disabled are indistinguishable from the baseline.
 *
 * The recorder is per-System state: it is created by the System when
 * ObsConfig::flightRecorder is non-zero, owns its stats through the
 * System's StatRegistry, and is never shared across threads. Event
 * content is a pure function of the simulation, so recordings (and
 * everything exported from them) are bit-identical across replays of
 * the same seed and across campaign worker counts.
 */

#ifndef WB_OBS_FLIGHT_RECORDER_HH
#define WB_OBS_FLIGHT_RECORDER_HH

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace wb
{

/** Per-System observability knobs (all off by default). */
struct ObsConfig
{
    /** Flight-recorder ring capacity in events; 0 = disabled. */
    std::size_t flightRecorder = 0;
    /** Time-series gauge sample period in cycles; 0 = disabled. */
    Tick timelinePeriod = 0;
    /** Metrics snapshot-stream period in cycles; 0 = no stream. */
    Tick metricsPeriod = 0;
    /** Build the metrics registry (gauges + exposition) even when no
     *  snapshot stream is requested. Implied by metricsPeriod != 0
     *  and by timelinePeriod != 0 (the timeline reads the registry). */
    bool metrics = false;
    /** Text-trace flags (LogFlag bits, sim/log.hh) for every core,
     *  L1, LLC bank and the TSO checker; 0 = no trace lines. In no
     *  fingerprint, report or manifest. */
    unsigned trace = 0;

    /** True when the metrics registry should exist for this run. */
    bool
    metricsEnabled() const
    {
        return metrics || metricsPeriod != 0 || timelinePeriod != 0;
    }
};

/** Structured event kinds (see docs/OBSERVABILITY.md). */
enum class EvKind : std::uint8_t
{
    TxnBegin,      //!< L1 opened a transaction (arg = kind tag)
    TxnDirSeen,    //!< directory serialised the request (arg = core)
    TxnData,       //!< data/grant arrived at the requestor
    TxnEnd,        //!< transaction retired (arg = total latency)
    TxnAbort,      //!< transaction cancelled (invalidation race)
    NetEnqueue,    //!< message injected (arg = src<<32 | dst)
    NetDeliver,    //!< message delivered (arg = src<<32 | dst)
    NetRetransmit, //!< transport re-sent a dropped message
    LockAcquire,   //!< first lockdown set on a line
    LockRelease,   //!< last lockdown released (arg = held cycles)
    WbEnter,       //!< directory entered WritersBlock
    WbExit,        //!< WritersBlock resolved (arg = held cycles)
    Commit,        //!< instruction committed
    Squash,        //!< pipeline squash (arg = instructions killed)
    DedupDrop,     //!< duplicate delivery discarded by an endpoint
    ArqReissue,    //!< endpoint re-issued a stalled request
};

/** Stable lower-case name of an event kind. */
const char *evKindName(EvKind k);

/** Which component emitted an event. */
enum class EvUnit : std::uint8_t
{
    Core, //!< id = core index
    L1,   //!< id = L1 index
    LLC,  //!< id = bank index
    VNet, //!< id = virtual network (0..2)
};

/** Stable lower-case name of an event unit. */
const char *evUnitName(EvUnit u);

/** One recorded event (fixed-size, trivially copyable). */
struct ObsEvent
{
    Tick tick = 0;
    Addr addr = 0;         //!< line the event concerns (0 if none)
    std::uint64_t arg = 0; //!< kind-specific payload
    EvKind kind = EvKind::TxnBegin;
    EvUnit unit = EvUnit::Core;
    std::int16_t id = -1;  //!< component index within the unit
};

/**
 * The ring buffer plus the open-transaction phase table feeding the
 * latency-breakdown histograms (request->directory, directory->data,
 * data->unblock; their per-transaction sum telescopes exactly to the
 * end-to-end latency, which tests assert).
 */
class FlightRecorder
{
  public:
    FlightRecorder(StatRegistry *stats, std::size_t capacity);

    /** Append one event, overwriting the oldest once full. */
    void record(Tick t, EvKind k, EvUnit u, int id, Addr addr = 0,
                std::uint64_t arg = 0);

    // -- transaction phase tracking ------------------------------
    // Keyed by (requestor core, line); uncacheable (GetU) bypasses
    // use a separate key space so an SoS bypass never clobbers the
    // write transaction it bypasses.
    void txnBegin(Tick t, int core, Addr line, char tag,
                  bool unc = false);
    void txnDirSeen(Tick t, int bank, int core, Addr line,
                    bool unc = false);
    void txnData(Tick t, int core, Addr line, bool unc = false);
    void txnEnd(Tick t, int core, Addr line, bool unc = false);
    void txnAbort(Tick t, int core, Addr line, bool unc = false);

    /** LockRelease event + lockdown-held histogram sample. */
    void lockHeld(Tick t, int core, Addr line, Tick held);

    /** WbExit event + WritersBlock-held histogram sample. */
    void wbExit(Tick t, int bank, Addr line, Tick held);

    // -- inspection ----------------------------------------------
    std::size_t capacity() const { return _ring.size(); }
    /** Events recorded over the whole run (>= size()). */
    std::uint64_t recorded() const { return _count; }
    /** Events currently held (min(recorded, capacity)). */
    std::size_t size() const;
    /** Last @p n events, oldest first. */
    std::vector<ObsEvent> tail(std::size_t n = std::size_t(-1)) const;

    const Histogram &reqToDir() const { return _reqToDir; }
    const Histogram &dirToData() const { return _dirToData; }
    const Histogram &dataToEnd() const { return _dataToEnd; }
    const Histogram &txnLatency() const { return _txnLatency; }
    const Histogram &lockdownHeld() const { return _lockdownHeld; }
    const Histogram &wbHeld() const { return _wbHeld; }

  private:
    struct OpenTxn
    {
        Tick begin = 0;
        Tick dirSeen = 0;
        Tick data = 0;
    };
    using TxnKey = std::pair<int, Addr>;
    static TxnKey key(int core, Addr line, bool unc)
    {
        // GetU bypasses live in a disjoint core-index range.
        return {unc ? ~core : core, line};
    }

    std::vector<ObsEvent> _ring;
    std::uint64_t _count = 0;
    std::map<TxnKey, OpenTxn> _open;
    StatGroup _stats;
    Histogram &_reqToDir;
    Histogram &_dirToData;
    Histogram &_dataToEnd;
    Histogram &_txnLatency;
    Histogram &_lockdownHeld;
    Histogram &_wbHeld;
    Counter &_overwritten;
};

/**
 * Event hook: cheap when the recorder is absent (one null test, like
 * WB_TRACE's flag test).
 * Usage: WB_EVENT(recorder(), now(), EvKind::Commit, EvUnit::Core,
 *                 id);
 */
#define WB_EVENT(rec, ...)                                            \
    do {                                                              \
        if (auto *wb_ev_rec_ = (rec))                                 \
            wb_ev_rec_->record(__VA_ARGS__);                          \
    } while (0)

} // namespace wb

#endif // WB_OBS_FLIGHT_RECORDER_HH

/**
 * @file
 * Base class for simulated hardware components.
 */

#ifndef WB_SIM_SIM_OBJECT_HH
#define WB_SIM_SIM_OBJECT_HH

#include <string>
#include <utility>

#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace wb
{

class FlightRecorder;
class MetricsRegistry;

/**
 * A named simulated component bound to an event queue and a stat
 * registry. Components that do per-cycle work also implement tick();
 * the System calls tick() on the components of every awake tile each
 * cycle in a deterministic order, and a tile sleeps until touch().
 */
class SimObject
{
  public:
    SimObject(std::string name, EventQueue *eq, StatRegistry *stats)
        : _name(std::move(name)), _eq(eq),
          _stats(stats, _name)
    {}

    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return _name; }
    EventQueue &eventQueue() { return *_eq; }
    Tick now() const { return _eq->now(); }

    /** Per-cycle work; default: none. */
    virtual void tick() {}

    /** Attach the System's flight recorder (nullptr = no events;
     *  the default, so hooks cost one branch). */
    void setFlightRecorder(FlightRecorder *rec) { _recorder = rec; }

    /** Attach the System's trace mask (ObsConfig::trace, LogFlag
     *  bits; 0 = no trace lines, the default). */
    void setTraceMask(unsigned mask) { _traceMask = mask; }

    /** Point touch() at the owning tile's touched flag (the System's
     *  tile sleep, docs/PERFORMANCE.md "Quiet tiles sleep"). Unbound,
     *  touch() sets a private flag nobody reads. */
    void setTouchFlag(bool *flag) { _touched = flag; }

    /** Register live gauges (and any extra metric labels) with the
     *  System's metrics registry. Called once, at System
     *  construction, and only when metrics are enabled — the
     *  default build never reaches this. Counters and histograms
     *  need no action here: the registry sees them through the
     *  StatRegistry the component already registers into. */
    virtual void registerMetrics(MetricsRegistry &) {}

  protected:
    StatGroup &statGroup() { return _stats; }

    /** Event sink for WB_EVENT hooks (obs/flight_recorder.hh). */
    FlightRecorder *recorder() const { return _recorder; }

    /** Flag bits for WB_TRACE hooks (sim/log.hh). */
    unsigned traceMask() const { return _traceMask; }

    /** State its tile's tick reads has changed: a sleeping tile
     *  must wake, an awake one must not fall asleep. */
    void touch() { *_touched = true; }

  private:
    std::string _name;
    EventQueue *_eq;
    StatGroup _stats;
    FlightRecorder *_recorder = nullptr;
    unsigned _traceMask = 0;
    bool _ownTouched = false;
    bool *_touched = &_ownTouched;
};

} // namespace wb

#endif // WB_SIM_SIM_OBJECT_HH

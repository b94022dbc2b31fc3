/**
 * @file
 * Time-series view of the metrics registry: on a fixed cycle period
 * the System has the sampler read one row of machine-wide occupancy
 * gauges (ROB/IQ/LQ/SQ/SB, lockdowns, MSHRs, writebacks, in-flight
 * ledger, per-vnet link traffic) from the MetricsRegistry into an
 * in-memory series, written to CSV, JSON or Perfetto counter tracks
 * after the run.
 *
 * Each column sums the registry metrics matching one name pattern;
 * traffic columns report a counter's growth since the previous row.
 * Reading gauges cannot perturb simulated behaviour, only wall
 * clock, and rows are a pure function of the simulation: replays of
 * the same seed produce byte-identical series.
 */

#ifndef WB_OBS_TIMELINE_HH
#define WB_OBS_TIMELINE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string_view>
#include <vector>

#include "obs/metrics.hh"
#include "sim/types.hh"

namespace wb
{

/** One timeline column and the names it goes by in each export. */
struct TimelineColumn
{
    std::string_view csv;    //!< CSV header
    std::string_view json;   //!< JSON key; a run of equal keys is
                             //!< written as one array
    std::string_view track;  //!< Perfetto counter-track name
    std::string_view metric; //!< registry pattern ('*' = a segment)
    bool delta;              //!< growth since the previous row
};

/** The sampled columns, in output order. */
inline constexpr std::array<TimelineColumn, 12> timelineColumns{{
    {"rob", "rob", "rob", "core.*.rob", false},
    {"iq", "iq", "iq", "core.*.iq", false},
    {"lq", "lq", "lq", "core.*.lq", false},
    {"sq", "sq", "sq", "core.*.sq", false},
    {"sb", "sb", "sb", "core.*.sb", false},
    {"lockdowns", "lockdowns", "lockdowns", "core.*.locksHeld", false},
    {"mshrs", "mshrs", "mshrs", "l1.*.mshrs", false},
    {"writebacks", "writebacks", "writebacks", "l1.*.writebacks",
     false},
    {"inFlight", "inFlight", "net inFlight", "net.inFlight", false},
    {"vnetReqFlits", "vnetFlitHops", "flits req", "net.flitHopsReq",
     true},
    {"vnetFwdFlits", "vnetFlitHops", "flits fwd", "net.flitHopsFwd",
     true},
    {"vnetRespFlits", "vnetFlitHops", "flits resp",
     "net.flitHopsResp", true},
}};

/** One sampled row: the cycle and a value per timeline column. */
struct TimelineRow
{
    Tick cycle = 0;
    std::array<std::uint64_t, timelineColumns.size()> values{};
};

class TimelineSampler
{
  public:
    /** Bind every column to the metrics of @p metrics it sums; the
     *  registry must outlive the sampler. */
    TimelineSampler(const MetricsRegistry &metrics, Tick period);

    /** Is @p cycle a sample point? (multiples of the period) */
    bool due(Tick cycle) const { return cycle % _period == 0; }
    Tick period() const { return _period; }

    /** Read one row from the registry. */
    void sample(Tick cycle);

    const std::vector<TimelineRow> &samples() const
    {
        return _samples;
    }

    /** One header line plus one row per sample. */
    void writeCsv(std::ostream &os) const;

    /** {"period":N,"samples":[{...},...]} */
    void writeJson(std::ostream &os) const;

  private:
    Tick _period;
    std::array<std::function<std::uint64_t()>, timelineColumns.size()>
        _read;
    /** Previous totals of the delta columns. */
    std::array<std::uint64_t, timelineColumns.size()> _last{};
    std::vector<TimelineRow> _samples;
};

} // namespace wb

#endif // WB_OBS_TIMELINE_HH

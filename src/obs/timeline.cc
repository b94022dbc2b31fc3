#include "obs/timeline.hh"

#include <string>

#include "system/json_writer.hh"

namespace wb
{

TimelineSampler::TimelineSampler(const MetricsRegistry &metrics,
                                 Tick period)
    : _period(period ? period : 1)
{
    for (std::size_t i = 0; i < timelineColumns.size(); ++i)
        _read[i] = metrics.sumOf(timelineColumns[i].metric);
}

void
TimelineSampler::sample(Tick cycle)
{
    TimelineRow row;
    row.cycle = cycle;
    for (std::size_t i = 0; i < timelineColumns.size(); ++i) {
        const std::uint64_t v = _read[i]();
        row.values[i] = timelineColumns[i].delta ? v - _last[i] : v;
        _last[i] = v;
    }
    _samples.push_back(row);
}

void
TimelineSampler::writeCsv(std::ostream &os) const
{
    os << "cycle";
    for (const TimelineColumn &c : timelineColumns)
        os << ',' << c.csv;
    os << '\n';
    for (const TimelineRow &row : _samples) {
        os << row.cycle;
        for (std::uint64_t v : row.values)
            os << ',' << v;
        os << '\n';
    }
}

void
TimelineSampler::writeJson(std::ostream &os) const
{
    const auto &cols = timelineColumns;
    JsonWriter w(os);
    w.openObject();
    w.field("period", std::uint64_t(_period));
    w.openArray("samples");
    for (const TimelineRow &row : _samples) {
        w.openObject();
        w.field("cycle", std::uint64_t(row.cycle));
        for (std::size_t i = 0; i < cols.size(); ++i) {
            const std::string key(cols[i].json);
            const bool first = i == 0 || cols[i - 1].json != key;
            const bool last =
                i + 1 == cols.size() || cols[i + 1].json != key;
            if (first && last) {
                w.field(key, row.values[i]);
                continue;
            }
            if (first)
                w.openArray(key);
            w.field("", row.values[i]);
            if (last)
                w.closeArray();
        }
        w.closeObject();
    }
    w.closeArray();
    w.closeObject();
    os << '\n';
}

} // namespace wb

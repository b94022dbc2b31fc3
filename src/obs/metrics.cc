#include "obs/metrics.hh"

#include <cassert>
#include <cerrno>
#include <climits>
#include <cstring>
#include <unistd.h>

#include "sim/parse.hh"
#include "sim/results.hh"
#include "system/json_writer.hh"

namespace wb
{

const char *
metricKindName(MetricKind k)
{
    switch (k) {
      case MetricKind::Counter: return "counter";
      case MetricKind::Gauge: return "gauge";
      case MetricKind::Histogram: return "histogram";
    }
    return "?";
}

std::string
MetricsRegistry::componentOf(const std::string &name)
{
    auto dot = name.rfind('.');
    return dot == std::string::npos ? std::string()
                                    : name.substr(0, dot);
}

void
MetricsRegistry::addGauge(const std::string &name,
                          const std::string &unit,
                          std::function<std::uint64_t()> poll)
{
    assert(poll);
    assert(!_stats || !_stats->find(name));
    auto [it, inserted] = _gauges.emplace(name, Gauge{unit,
                                                     std::move(poll)});
    (void)it;
    assert(inserted && "duplicate gauge name");
}

void
MetricsRegistry::forEach(const VisitFn &fn) const
{
    // Both sources iterate in sorted name order; merge them.
    const std::map<std::string, StatBase *> none;
    const auto &stats = _stats ? _stats->all() : none;
    auto si = stats.begin();
    auto gi = _gauges.begin();
    while (si != stats.end() || gi != _gauges.end()) {
        if (gi == _gauges.end() ||
            (si != stats.end() && si->first < gi->first)) {
            fn(si->first, si->second, nullptr);
            ++si;
        } else {
            fn(gi->first, nullptr, &gi->second);
            ++gi;
        }
    }
}

std::vector<MetricDesc>
MetricsRegistry::describe() const
{
    std::vector<MetricDesc> out;
    forEach([&](const std::string &name, const StatBase *stat,
                const Gauge *gauge) {
        MetricDesc d;
        d.name = name;
        d.kind = gauge ? MetricKind::Gauge
                 : dynamic_cast<const Histogram *>(stat)
                     ? MetricKind::Histogram
                     : MetricKind::Counter;
        d.unit = gauge ? gauge->unit : stat->unit();
        d.component = componentOf(name);
        out.push_back(std::move(d));
    });
    return out;
}

std::function<std::uint64_t()>
MetricsRegistry::sumOf(std::string_view pattern) const
{
    std::vector<const Counter *> counters;
    std::vector<const std::function<std::uint64_t()> *> polls;
    forEach([&](const std::string &name, const StatBase *stat,
                const Gauge *gauge) {
        if (!StatRegistry::matches(pattern, name))
            return;
        if (gauge)
            polls.push_back(&gauge->poll);
        else if (auto *c = dynamic_cast<const Counter *>(stat))
            counters.push_back(c);
    });
    return [counters = std::move(counters), polls = std::move(polls)] {
        std::uint64_t sum = 0;
        for (const Counter *c : counters)
            sum += c->value();
        for (const auto *poll : polls)
            sum += (*poll)();
        return sum;
    };
}

std::vector<std::pair<std::string, std::uint64_t>>
MetricsRegistry::values(MetricsSummary *summary) const
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    forEach([&](const std::string &name, const StatBase *stat,
                const Gauge *gauge) {
        if (gauge)
            out.emplace_back(name, gauge->poll());
        else if (auto *h = dynamic_cast<const Histogram *>(stat))
            out.emplace_back(name, h->samples());
        else if (auto *c = dynamic_cast<const Counter *>(stat))
            out.emplace_back(name, c->value());
    });
    // The roll-ups sum what the run's SimResults sum.
    if (summary && _stats) {
        summary->instructions =
            _stats->sum(resultStat(&SimResults::instructions));
        summary->stores = _stats->sum(resultStat(&SimResults::stores));
        summary->wbEntries =
            _stats->sum(resultStat(&SimResults::wbEntries));
    }
    return out;
}

namespace
{

/** Prometheus metric-name sanitization: [a-zA-Z0-9_] only. */
std::string
promName(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_';
        out.push_back(ok ? c : '_');
    }
    if (!out.empty() && out[0] >= '0' && out[0] <= '9')
        out.insert(out.begin(), '_');
    return out;
}

/** Quoted JSON string. */
std::string
jsonStr(const std::string &s)
{
    return '"' + jsonEscape(s) + '"';
}

std::string
promLabels(const std::string &component, const std::string &unit)
{
    std::string out = "{component=\"" + component + "\"";
    if (!unit.empty())
        out += ",unit=\"" + unit + "\"";
    return out; // caller appends extra labels + "}"
}

} // namespace

void
MetricsRegistry::writeExposition(std::ostream &os) const
{
    // Group series by family ("component.stat" -> family "wb_stat")
    // so each family gets exactly one TYPE header; std::map keeps
    // both families and their series deterministically sorted.
    struct Series
    {
        std::string text; // fully rendered sample lines
    };
    struct Family
    {
        MetricKind kind = MetricKind::Counter;
        std::map<std::string, std::string> series; // name -> lines
    };
    std::map<std::string, Family> families;

    auto familyOf = [](const std::string &name) {
        auto dot = name.rfind('.');
        std::string shortName =
            dot == std::string::npos ? name : name.substr(dot + 1);
        return "wb_" + promName(shortName);
    };

    if (_stats) {
        for (const auto &[name, stat] : _stats->all()) {
            std::string fam = familyOf(name);
            std::string comp = componentOf(name);
            std::string labels = promLabels(comp, stat->unit());
            auto &f = families[fam];
            std::string lines;
            if (auto *h = dynamic_cast<const Histogram *>(stat)) {
                f.kind = MetricKind::Histogram;
                for (auto [q, v] :
                     {std::pair<const char *, std::uint64_t>
                          {"0.5", h->p50()},
                      {"0.95", h->p95()},
                      {"0.99", h->p99()}}) {
                    lines += fam + labels + ",quantile=\"" + q +
                             "\"} " + std::to_string(v) + "\n";
                }
                lines += fam + "_sum" + labels + "} " +
                         std::to_string(h->sum()) + "\n";
                lines += fam + "_count" + labels + "} " +
                         std::to_string(h->samples()) + "\n";
            } else if (auto *c = dynamic_cast<const Counter *>(stat)) {
                f.kind = MetricKind::Counter;
                lines = fam + labels + "} " +
                        std::to_string(c->value()) + "\n";
            }
            f.series.emplace(name, std::move(lines));
        }
    }
    for (const auto &[name, g] : _gauges) {
        std::string fam = familyOf(name);
        auto &f = families[fam];
        f.kind = MetricKind::Gauge;
        f.series.emplace(name,
                         fam + promLabels(componentOf(name), g.unit) +
                             "} " + std::to_string(g.poll()) + "\n");
    }

    for (const auto &[fam, f] : families) {
        const char *type = f.kind == MetricKind::Histogram
                               ? "summary"
                               : f.kind == MetricKind::Gauge ? "gauge"
                                                             : "counter";
        os << "# TYPE " << fam << " " << type << "\n";
        for (const auto &[name, lines] : f.series)
            os << lines;
    }
}

MetricsStreamer::MetricsStreamer(const MetricsRegistry *reg,
                                 Tick period)
    : _reg(reg), _period(period ? period : 1)
{}

MetricsStreamer::~MetricsStreamer()
{
    if (_file)
        std::fclose(_file);
}

bool
MetricsStreamer::openFile(const std::string &spec, std::string &err)
{
    if (spec.rfind("fd:", 0) == 0) {
        int fd = 0;
        if (!parseNumber(spec.substr(3), 0, INT_MAX, fd).empty()) {
            err = "bad descriptor in '" + spec + "'";
            return false;
        }
        int dup_fd = ::dup(fd);
        if (dup_fd < 0) {
            err = "dup(" + std::to_string(fd) + "): " +
                  std::strerror(errno);
            return false;
        }
        _file = ::fdopen(dup_fd, "w");
        if (!_file) {
            err = "fdopen: " + std::string(std::strerror(errno));
            ::close(dup_fd);
            return false;
        }
        return true;
    }
    _file = std::fopen(spec.c_str(), "w");
    if (!_file) {
        err = spec + ": " + std::strerror(errno);
        return false;
    }
    return true;
}

void
MetricsStreamer::writeLine(const std::string &line,
                           const MetricsSummary &sum)
{
    if (_file) {
        std::fwrite(line.data(), 1, line.size(), _file);
        std::fputc('\n', _file);
        std::fflush(_file);
    }
    if (_callback)
        _callback(sum, line);
    ++_lines;
}

void
MetricsStreamer::emitHeader()
{
    if (_headerDone)
        return;
    _headerDone = true;
    std::string line = "{\"schema\":\"wb-metrics-1\",\"period\":" +
                       std::to_string(_period);
    if (_hasWall)
        line += ",\"wall\":{\"startedUnixMs\":" +
                std::to_string(_wallMs) + "}";
    line += ",\"metrics\":[";
    bool first = true;
    for (const auto &d : _reg->describe()) {
        if (!first)
            line += ",";
        first = false;
        line += "{\"name\":" + jsonStr(d.name) + ",\"kind\":\"" +
                metricKindName(d.kind) + "\"";
        if (!d.unit.empty())
            line += ",\"unit\":" + jsonStr(d.unit);
        line += ",\"component\":" + jsonStr(d.component) + "}";
    }
    line += "]}";
    MetricsSummary sum; // header frame carries an empty summary
    writeLine(line, sum);
}

void
MetricsStreamer::emit(Tick tick)
{
    emitHeader();
    if (tick == _lastTick)
        return;
    MetricsSummary sum;
    sum.tick = tick;
    auto vals = _reg->values(&sum);
    std::string body;
    for (const auto &[name, v] : vals) {
        bool changed;
        if (!_emittedData) {
            changed = v != 0;
        } else {
            auto it = _last.find(name);
            changed = it == _last.end() || it->second != v;
        }
        if (changed) {
            if (!body.empty())
                body += ",";
            body += jsonStr(name) + ":" + std::to_string(v);
        }
        _last[name] = v;
    }
    if (body.empty())
        return;
    _emittedData = true;
    _lastTick = tick;
    writeLine("{\"tick\":" + std::to_string(tick) + ",\"v\":{" +
                  body + "}}",
              sum);
}

void
MetricsStreamer::finish(Tick tick)
{
    emitHeader();
    emit(tick);
}

} // namespace wb

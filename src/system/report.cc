#include "system/report.hh"

#include "sim/stats.hh"
#include "system/json_writer.hh"

namespace wb
{

void
writeJsonReport(std::ostream &os, const std::string &workload,
                const SystemConfig &cfg, const SimResults &r,
                const StatRegistry *stats)
{
    JsonWriter w(os);
    w.openObject();
    w.field("workload", workload);

    w.openObject("config");
    w.field("numCores", std::uint64_t(cfg.numCores));
    w.field("commitMode",
            std::string(commitModeName(cfg.core.commitMode)));
    w.field("lockdown", cfg.core.lockdown);
    w.field("writersBlock", cfg.core.lockdown); // protocol flavour
    w.field("inOrderIssue", cfg.core.inOrderIssue);
    w.field("robSize", std::uint64_t(cfg.core.robSize));
    w.field("lqSize", std::uint64_t(cfg.core.lqSize));
    w.field("sqSize", std::uint64_t(cfg.core.sqSize));
    w.field("ldtSize", std::uint64_t(cfg.core.ldtSize));
    w.field("network", std::string(networkKindName(cfg.network)));
    w.field("silentSharedEvictions",
            cfg.mem.silentSharedEvictions);
    w.field("prefetchNextLine", cfg.mem.prefetchNextLine);
    w.closeObject();

    w.openObject("results");
    w.field("completed", r.completed);
    w.field("deadlocked", r.deadlocked);
    w.field("deadlockReason", r.deadlockReason);
    for (const ResultField &f : resultFields) {
        if (f.flag)
            w.field(f.key, r.*f.flag);
        else
            w.field(f.key, r.*f.count);
        if (f.count != &SimResults::flitHops)
            continue;
        // Per-vnet delivery-anomaly counters, reported next to the
        // flit-hop metric they contextualise. Always on (counted
        // even without recovery) so lossy transports are visible in
        // any run.
        static const char *kVNets[] = {"request", "forward",
                                       "response"};
        w.openObject("dupDelivered");
        for (std::size_t v = 0; v < r.dupDelivered.size(); ++v)
            w.field(kVNets[v], r.dupDelivered[v]);
        w.closeObject();
        w.openObject("oooDelivered");
        for (std::size_t v = 0; v < r.oooDelivered.size(); ++v)
            w.field(kVNets[v], r.oooDelivered[v]);
        w.closeObject();
    }
    w.field("wbPerKiloStore", r.wbPerKiloStore());
    w.field("uncReadsPerKiloLoad", r.uncReadsPerKiloLoad());
    w.closeObject();

    if (stats) {
        // The whole registry, typed: counters as bare integers,
        // histograms as summary objects with percentiles.
        w.openObject("stats");
        for (const auto &[name, stat] : stats->all()) {
            if (const auto *c = dynamic_cast<const Counter *>(stat)) {
                w.field(name, c->value());
            } else if (const auto *h =
                           dynamic_cast<const Histogram *>(stat)) {
                w.openObject(name);
                w.field("samples", h->samples());
                w.field("sum", h->sum());
                w.field("mean", h->mean());
                w.field("min", h->minValue());
                w.field("max", h->maxValue());
                w.field("p50", h->p50());
                w.field("p95", h->p95());
                w.field("p99", h->p99());
                w.closeObject();
            }
        }
        w.closeObject();
    }
    w.closeObject();
    os << '\n';
}

} // namespace wb

#include "campaign/campaign_aggregator.hh"

#include <map>

#include "system/json_writer.hh"

namespace wb
{

CampaignAggregator::CampaignAggregator(std::size_t total)
{
    _sum.total = total;
}

void
OutcomeTally::add(const JobResult &r)
{
    if (r.infraFailure) {
        ++infraFailures;
    } else {
        switch (r.outcome) {
          case RunOutcome::Ok: ++ok; break;
          case RunOutcome::TsoViolation: ++tsoViolations; break;
          case RunOutcome::Deadlock: ++deadlocks; break;
          case RunOutcome::Panic: ++panics; break;
        }
    }
    if (!r.results.completed)
        ++incomplete;
    if (r.equivalenceChecked) {
        ++equivalenceChecked;
        if (!r.equivalenceMatch)
            ++equivalenceMismatches;
    }
}

void
CampaignAggregator::record(const JobResult &r)
{
    std::lock_guard<std::mutex> lk(_mu);
    ++_sum.done;
    _sum.add(r);
    if (r.attempts > 1)
        ++_sum.retried;
}

CampaignSummary
CampaignAggregator::summary() const
{
    std::lock_guard<std::mutex> lk(_mu);
    return _sum;
}

std::vector<CellSummary>
reduceCells(const CampaignSpec &spec,
            const std::vector<JobResult> &jobs)
{
    std::vector<CellSummary> cells;
    std::map<std::string, std::size_t> index;
    for (const JobResult &r : jobs) {
        const std::string key = spec.cellKey(r.spec);
        auto it = index.find(key);
        if (it == index.end()) {
            it = index.emplace(key, cells.size()).first;
            cells.emplace_back();
            cells.back().key = key;
        }
        CellSummary &c = cells[it->second];
        ++c.count;
        c.add(r);
        c.cycles.add(r.results.cycles);
        c.instructions.add(r.results.instructions);
        c.wbEntries.add(r.results.wbEntries);
        c.uncacheableReads.add(r.results.uncacheableReads);
        c.faultsDropped.add(r.results.faultsDropped);
        c.leakedMessages.add(r.results.leakedMessages);
        c.retransmits.add(r.results.retransmits);
        c.recoveredMessages.add(r.results.recoveredMessages);
    }
    return cells;
}

namespace
{

void
writeMetric(JsonWriter &w, const std::string &key,
            const MetricSummary &m)
{
    w.openObject(key);
    w.field("min", m.n ? m.min : 0);
    w.field("max", m.max);
    w.field("sum", m.sum);
    w.field("mean", m.mean());
    w.closeObject();
}

void
writeSummary(JsonWriter &w, const CampaignSummary &s)
{
    w.openObject("summary");
    w.field("total", std::uint64_t(s.total));
    w.field("ok", std::uint64_t(s.ok));
    w.field("tsoViolations", std::uint64_t(s.tsoViolations));
    w.field("deadlocks", std::uint64_t(s.deadlocks));
    w.field("panics", std::uint64_t(s.panics));
    w.field("infraFailures", std::uint64_t(s.infraFailures));
    w.field("incomplete", std::uint64_t(s.incomplete));
    w.field("retried", std::uint64_t(s.retried));
    w.field("equivalenceChecked",
            std::uint64_t(s.equivalenceChecked));
    w.field("equivalenceMismatches",
            std::uint64_t(s.equivalenceMismatches));
    w.closeObject();
}

} // namespace

void
writeCampaignJson(std::ostream &os, const CampaignSpec &spec,
                  const CampaignResult &result)
{
    JsonWriter w(os);
    w.openObject();
    w.field("schema", std::string("wbsim-campaign-1"));
    w.field("name", spec.name);

    w.openObject("axes");
    w.openArray("workloads");
    for (const std::string &wl : spec.workloads) {
        w.openObject();
        w.field("name", wl);
        w.closeObject();
    }
    w.closeArray();
    w.openArray("modes");
    for (const CommitMode m : spec.modes) {
        w.openObject();
        w.field("name", std::string(commitModeName(m)));
        w.closeObject();
    }
    w.closeArray();
    w.openArray("classes");
    for (const CoreClass c : spec.classes) {
        w.openObject();
        w.field("name", std::string(coreClassName(c)));
        w.closeObject();
    }
    w.closeArray();
    w.openArray("variants");
    for (const std::string &v : spec.variants) {
        w.openObject();
        w.field("name", v);
        w.closeObject();
    }
    w.closeArray();
    w.openArray("mixes");
    for (const CampaignMix &m : spec.mixes) {
        w.openObject();
        w.field("name", m.name);
        w.field("spec", m.spec);
        w.closeObject();
    }
    w.closeArray();
    w.field("seeds", std::uint64_t(spec.seeds));
    w.field("baseSeed", spec.baseSeed);
    w.field("cores", std::uint64_t(spec.machine.numCores));
    w.field("scale", spec.scale);
    w.closeObject();

    writeSummary(w, result.summary);

    w.openArray("cells");
    for (const CellSummary &c : reduceCells(spec, result.jobs)) {
        w.openObject();
        w.field("cell", c.key);
        w.field("count", std::uint64_t(c.count));
        w.openObject("outcomes");
        w.field("ok", std::uint64_t(c.ok));
        w.field("tsoViolations", std::uint64_t(c.tsoViolations));
        w.field("deadlocks", std::uint64_t(c.deadlocks));
        w.field("panics", std::uint64_t(c.panics));
        w.field("infraFailures", std::uint64_t(c.infraFailures));
        w.field("incomplete", std::uint64_t(c.incomplete));
        w.field("equivalenceChecked",
                std::uint64_t(c.equivalenceChecked));
        w.field("equivalenceMismatches",
                std::uint64_t(c.equivalenceMismatches));
        w.closeObject();
        writeMetric(w, "cycles", c.cycles);
        writeMetric(w, "instructions", c.instructions);
        writeMetric(w, "wbEntries", c.wbEntries);
        writeMetric(w, "uncacheableReads", c.uncacheableReads);
        writeMetric(w, "faultsDropped", c.faultsDropped);
        writeMetric(w, "leakedMessages", c.leakedMessages);
        writeMetric(w, "retransmits", c.retransmits);
        writeMetric(w, "recoveredMessages", c.recoveredMessages);
        w.closeObject();
    }
    w.closeArray();

    w.openArray("jobs");
    for (const JobResult &r : result.jobs) {
        const SimResults &res = r.results;
        w.openObject();
        w.field("index", std::uint64_t(r.spec.index));
        w.field("workload", r.spec.workload);
        w.field("mode",
                std::string(commitModeName(r.spec.mode)));
        w.field("class", std::string(coreClassName(r.spec.cls)));
        w.field("variant", r.spec.variant);
        w.field("mix", r.spec.mixName);
        w.field("seedIndex", std::uint64_t(r.spec.seedIndex));
        w.field("seed", r.spec.seed);
        w.field("faultSeed", r.spec.faultSeed);
        w.field("verdict", r.verdict);
        w.field("detail", r.detail);
        w.field("exitCode",
                std::uint64_t(static_cast<int>(r.outcome)));
        w.field("attempts", std::uint64_t(r.attempts));
        w.field("completed", res.completed);
        w.field("cycles", res.cycles);
        w.field("instructions", res.instructions);
        w.field("loads", res.loads);
        w.field("stores", res.stores);
        w.field("atomics", res.atomics);
        w.field("wbEntries", res.wbEntries);
        w.field("uncacheableReads", res.uncacheableReads);
        w.field("lockdownsSet", res.lockdownsSet);
        w.field("oooCommits", res.oooCommits);
        w.field("messages", res.messages);
        w.field("leakedMessages", res.leakedMessages);
        w.field("faultsDropped", res.faultsDropped);
        w.field("faultsDuplicated", res.faultsDuplicated);
        w.field("faultsDelayed", res.faultsDelayed);
        w.field("recoveryEnabled", res.recoveryEnabled);
        w.field("retransmits", res.retransmits);
        w.field("recoveredMessages", res.recoveredMessages);
        w.field("arqReissues", res.arqReissues);
        w.field("arqRecovered", res.arqRecovered);
        w.field("dedupHits", res.dedupHits);
        w.field("equivalence",
                std::string(r.equivalenceChecked
                                ? (r.equivalenceMatch ? "match"
                                                      : "mismatch")
                                : ""));
        w.field("tsoViolations",
                std::uint64_t(res.tsoViolations));
        w.field("crashReport", r.crashReportPath);
        w.closeObject();
    }
    w.closeArray();

    w.closeObject();
    os << '\n';
}

void
writeCampaignCsv(std::ostream &os, const CampaignResult &result)
{
    os << campaignCsvHeader << '\n';
    for (const JobResult &r : result.jobs) {
        const SimResults &res = r.results;
        os << r.spec.index << ',' << r.spec.workload << ','
           << commitModeName(r.spec.mode) << ','
           << coreClassName(r.spec.cls) << ',' << r.spec.variant
           << ',' << r.spec.mixName << ',' << r.spec.seedIndex
           << ',' << r.spec.seed << ',' << r.spec.faultSeed << ','
           << r.verdict << ',' << static_cast<int>(r.outcome)
           << ',' << r.attempts << ','
           << (res.completed ? 1 : 0) << ',' << res.cycles << ','
           << res.instructions << ',' << res.loads << ','
           << res.stores << ',' << res.atomics << ','
           << res.wbEntries << ',' << res.uncacheableReads << ','
           << res.messages << ',' << res.leakedMessages << ','
           << res.faultsDropped << ',' << res.faultsDuplicated
           << ',' << res.faultsDelayed << ','
           << res.tsoViolations << ',' << res.retransmits << ','
           << res.recoveredMessages << ',' << res.arqReissues
           << ',' << res.dedupHits << ','
           << (r.equivalenceChecked
                   ? (r.equivalenceMatch ? "match" : "mismatch")
                   : "")
           << '\n';
    }
}

} // namespace wb

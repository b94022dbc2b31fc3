/**
 * @file
 * Figure 9 reproduction: the *cost* of the WritersBlock protocol.
 *
 * Same core (in-order commit), two protocol flavours:
 *   base — squash-and-re-execute core on the baseline MESI
 *          directory protocol;
 *   WB   — lockdown core on the WritersBlock protocol.
 *
 * The paper's claim: execution time and network traffic are
 * essentially unchanged (WritersBlock only acts in the rare racy
 * cases, and delaying a write costs less than a squash).
 *
 * The two flavours are a campaign variant axis; the whole grid runs
 * in parallel (fig9_overheads [-j N], or WB_JOBS) and both cells of
 * a benchmark simulate the identical program, so the ratios are
 * exact.
 */

#include <cstdio>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace wb;
    const double scale = wbench::benchScale();

    CampaignSpec spec = paperCampaign(
        {CommitMode::InOrder}, {CoreClass::SLM}, scale);
    spec.name = "fig9-overheads";
    // base: squash core, base protocol; wb: lockdown core on the
    // WritersBlock protocol, still committing in order (Section
    // 5.1: neither benefit nor penalty expected).
    spec.variants = {"base", "wb"};
    spec.configHook = [](const JobSpec &job, SystemConfig &cfg) {
        if (job.variant == "wb")
            cfg.core.lockdown = true;
    };
    const CampaignResult result = wbench::runPaperCampaign(
        spec, wbench::campaignJobs(argc, argv));

    std::printf("Figure 9: WritersBlock protocol overhead vs the "
                "base directory protocol\n");
    std::printf("mode: in-order commit, 16 cores (scale %.2f); "
                "values normalised to base\n\n",
                scale);
    std::printf("%-15s %12s %12s %12s %12s %10s %12s %10s\n",
                "benchmark", "time(base)", "time(WB)", "norm-time",
                "norm-traffic", "wb-events", "inv-squash", "(was)");
    wbench::printRule(102);

    double time_sum = 0, traffic_sum = 0;
    int n = 0;
    for (const std::string &name : benchmarkNames()) {
        const JobResult *base = result.find(
            name, CommitMode::InOrder, CoreClass::SLM, "base");
        const JobResult *wbr = result.find(
            name, CommitMode::InOrder, CoreClass::SLM, "wb");
        if (!base || !wbr)
            continue;
        const SimResults &b = base->results;
        const SimResults &w = wbr->results;

        const double nt =
            b.cycles ? double(w.cycles) / double(b.cycles) : 0.0;
        const double nf = b.flitHops
                              ? double(w.flitHops) /
                                    double(b.flitHops)
                              : 0.0;
        time_sum += nt;
        traffic_sum += nf;
        ++n;
        std::printf("%-15s %12llu %12llu %12.4f %12.4f %10llu "
                    "%12llu %10llu\n",
                    name.c_str(),
                    static_cast<unsigned long long>(b.cycles),
                    static_cast<unsigned long long>(w.cycles),
                    nt, nf,
                    static_cast<unsigned long long>(w.wbEntries),
                    static_cast<unsigned long long>(w.squashInv),
                    static_cast<unsigned long long>(b.squashInv));
    }
    wbench::printRule(102);
    std::printf("%-15s %38.4f %12.4f\n", "average", time_sum / n,
                traffic_sum / n);
    std::printf("\npaper: both averages ~1.00 — the protocol "
                "modifications are imperceptible when the\n"
                "core does not exploit them. The last two columns "
                "show the efficiency win even for\n"
                "in-order commit: consistency squashes drop to "
                "zero because lockdowns replace them\n"
                "(Figure 2 of the paper).\n");
    wbench::reportIncomplete(result);
    return result.summary.hardFailures() ? 1 : 0;
}

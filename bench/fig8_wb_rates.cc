/**
 * @file
 * Figure 8 reproduction: how often does WritersBlock actually act?
 *
 *   top:    write requests blocked (directory entered WritersBlock)
 *           per thousand committed stores, for SLM/NHM/HSW cores;
 *   bottom: uncacheable tear-off data responses per thousand
 *           executed loads.
 *
 * Paper expectations (shape, not absolute numbers): both rates are
 * tiny (well below ~1-2 per kilo-op for nearly all benchmarks);
 * larger LQs (NHM/HSW) see more of both because more loads are in
 * flight; the worst cases are the high-sharing applications
 * (streamcluster for blocked writes, freqmine for tear-offs).
 *
 * The benchmark x class grid runs as one parallel campaign
 * (fig8_wb_rates [-j N], or WB_JOBS).
 */

#include <cstdio>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace wb;
    const double scale = wbench::benchScale();
    const CoreClass classes[3] = {CoreClass::SLM, CoreClass::NHM,
                                  CoreClass::HSW};

    const CampaignSpec spec = paperCampaign(
        {CommitMode::OooWB},
        {CoreClass::SLM, CoreClass::NHM, CoreClass::HSW}, scale);
    const CampaignResult result = wbench::runPaperCampaign(
        spec, wbench::campaignJobs(argc, argv));

    std::printf("Figure 8: WritersBlock events per kilo-store and "
                "uncacheable reads per kilo-load\n");
    std::printf("mode: OoO commit + WritersBlock, 16 cores "
                "(scale %.2f)\n\n",
                scale);
    std::printf("%-15s | %8s %8s %8s | %8s %8s %8s\n", "",
                "SLM", "NHM", "HSW", "SLM", "NHM", "HSW");
    std::printf("%-15s | %26s | %26s\n", "benchmark",
                "wb-blocked / kilo-store", "unc-reads / kilo-load");
    wbench::printRule(76);

    double sum_wb[3] = {0, 0, 0};
    double sum_unc[3] = {0, 0, 0};
    int n = 0;
    for (const std::string &name : benchmarkNames()) {
        double wbv[3], unc[3];
        for (int c = 0; c < 3; ++c) {
            const JobResult *r = result.find(
                name, CommitMode::OooWB, classes[c]);
            wbv[c] = r ? r->results.wbPerKiloStore() : 0.0;
            unc[c] = r ? r->results.uncReadsPerKiloLoad() : 0.0;
            sum_wb[c] += wbv[c];
            sum_unc[c] += unc[c];
        }
        ++n;
        std::printf("%-15s | %8.3f %8.3f %8.3f | %8.3f %8.3f "
                    "%8.3f\n",
                    name.c_str(), wbv[0], wbv[1], wbv[2], unc[0],
                    unc[1], unc[2]);
    }
    wbench::printRule(76);
    std::printf("%-15s | %8.3f %8.3f %8.3f | %8.3f %8.3f %8.3f\n",
                "average", sum_wb[0] / n, sum_wb[1] / n,
                sum_wb[2] / n, sum_unc[0] / n, sum_unc[1] / n,
                sum_unc[2] / n);
    std::printf("\npaper: both rates are rare events — fractions "
                "of one per thousand memory operations on\n"
                "average, growing with load-queue size, peaking "
                "for the high-sharing benchmarks.\n");
    wbench::reportIncomplete(result);
    return result.summary.hardFailures() ? 1 : 0;
}

/**
 * @file
 * Figure 10 reproduction: what out-of-order commit buys, and what
 * WritersBlock adds on top.
 *
 * Three machines per benchmark (SLM-class, 16 cores):
 *   in-order   — retire strictly from the ROB head;
 *   ooo-safe   — Bell-Lipasti out-of-order commit, consistency
 *                condition enforced (reordered loads cannot commit);
 *   ooo+WB     — consistency condition relaxed through lockdowns +
 *                the WritersBlock protocol (the paper's system).
 *
 * top:    stall-cycle breakdown (no commit in a cycle, attributed
 *         to the first full structure: ROB / LQ / SQ, else other);
 * bottom: execution time normalised to in-order commit.
 *
 * Paper claims (shapes): OoO commit cuts ROB-full stalls but the LQ
 * becomes the bottleneck under the safe consistency condition;
 * WritersBlock relieves it. Average speedup 15.4% over in-order
 * (max 41.9%) and 10.2% over safe OoO commit (max 28.3%).
 *
 * The benchmark x mode grid runs as one parallel campaign
 * (fig10_ooo_commit [-j N], or WB_JOBS); all three cells of a
 * benchmark simulate the identical program.
 */

#include <cmath>
#include <cstdio>

#include "bench_common.hh"

namespace
{

struct StallRow
{
    double rob, lq, sq, other;
};

StallRow
stalls(const wb::SimResults &r)
{
    const double cc = double(r.coreCycles);
    return {100.0 * double(r.stallRob) / cc,
            100.0 * double(r.stallLq) / cc,
            100.0 * double(r.stallSq) / cc,
            100.0 * double(r.stallOther) / cc};
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace wb;
    const double scale = wbench::benchScale();

    CampaignSpec spec = paperCampaign(
        {CommitMode::InOrder, CommitMode::OooSafe,
         CommitMode::OooWB},
        {CoreClass::SLM}, scale);
    spec.name = "fig10-ooo-commit";
    const CampaignResult result = wbench::runPaperCampaign(
        spec, wbench::campaignJobs(argc, argv));

    std::printf("Figure 10: out-of-order commit with and without "
                "WritersBlock (SLM-class, 16 cores, scale %.2f)\n\n",
                scale);
    std::printf("%-15s | %-26s | %-26s | %-26s | %9s %9s\n", "",
                "in-order  stall%", "ooo-safe  stall%",
                "ooo+WB    stall%", "norm-time", "norm-time");
    std::printf("%-15s | %6s %6s %6s %6s | %6s %6s %6s %6s | %6s "
                "%6s %6s %6s | %9s %9s\n",
                "benchmark", "rob", "lq", "sq", "oth", "rob", "lq",
                "sq", "oth", "rob", "lq", "sq", "oth", "ooo-safe",
                "ooo+WB");
    wbench::printRule(126);

    double geo_safe = 0, geo_wb = 0, best_wb = 1.0, best_safe_gain =
                                                       1.0;
    std::string best_name;
    int n = 0;
    for (const std::string &name : benchmarkNames()) {
        const JobResult *io =
            result.find(name, CommitMode::InOrder, CoreClass::SLM);
        const JobResult *safe =
            result.find(name, CommitMode::OooSafe, CoreClass::SLM);
        const JobResult *wbr =
            result.find(name, CommitMode::OooWB, CoreClass::SLM);
        if (!io || !safe || !wbr)
            continue;

        const StallRow s1 = stalls(io->results);
        const StallRow s2 = stalls(safe->results);
        const StallRow s3 = stalls(wbr->results);
        const double nt_safe = double(safe->results.cycles) /
                               double(io->results.cycles);
        const double nt_wb = double(wbr->results.cycles) /
                             double(io->results.cycles);
        geo_safe += std::log(nt_safe);
        geo_wb += std::log(nt_wb);
        if (nt_wb < best_wb) {
            best_wb = nt_wb;
            best_name = name;
        }
        best_safe_gain = std::min(best_safe_gain, nt_wb / nt_safe);
        ++n;
        std::printf("%-15s | %6.1f %6.1f %6.1f %6.1f | %6.1f %6.1f "
                    "%6.1f %6.1f | %6.1f %6.1f %6.1f %6.1f | %9.3f "
                    "%9.3f\n",
                    name.c_str(), s1.rob, s1.lq, s1.sq, s1.other,
                    s2.rob, s2.lq, s2.sq, s2.other, s3.rob, s3.lq,
                    s3.sq, s3.other, nt_safe, nt_wb);
    }
    wbench::printRule(126);
    const double g_safe = std::exp(geo_safe / n);
    const double g_wb = std::exp(geo_wb / n);
    std::printf("%-15s %93s %9.3f %9.3f\n", "geomean", "", g_safe,
                g_wb);
    std::printf("\nsummary:\n"
                "  ooo+WB vs in-order : %5.1f%% faster on average "
                "(best: %s, %.1f%%)\n"
                "  ooo+WB vs ooo-safe : %5.1f%% faster on average "
                "(best single gain %.1f%%)\n",
                100.0 * (1.0 - g_wb), best_name.c_str(),
                100.0 * (1.0 - best_wb),
                100.0 * (1.0 - g_wb / g_safe),
                100.0 * (1.0 - best_safe_gain));
    std::printf("\npaper: 15.4%% average (41.9%% max, bodytrack) "
                "over in-order; 10.2%% average (28.3%% max)\n"
                "over safe OoO commit.\n");
    wbench::reportIncomplete(result);
    return result.summary.hardFailures() ? 1 : 0;
}

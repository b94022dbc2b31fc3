/**
 * @file
 * Shared helpers for the figure/table reproduction harnesses.
 *
 * Every harness honours the WB_BENCH_SCALE environment variable
 * (default 1.0): it scales the synthetic benchmarks' iteration
 * counts, letting CI run a fast smoke pass while full runs
 * reproduce the figures with more signal.
 *
 * The figure harnesses run their sweeps through the src/campaign
 * subsystem: wb::paperCampaign() builds the spec for the paper's
 * 16-core machine, campaignJobs() reads the worker count from a
 * -j N argument or the WB_JOBS environment variable (default: one
 * worker per hardware thread), and reportIncomplete() surfaces the
 * campaign's incomplete-run count — a run that hits maxCycles no
 * longer hides behind a stderr WARNING, it is counted in the
 * summary every harness prints.
 */

#ifndef WB_BENCH_COMMON_HH
#define WB_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "campaign/campaign_runner.hh"
#include "sim/parse.hh"
#include "system/system.hh"
#include "workload/benchmarks.hh"

namespace wbench
{

/** WB_BENCH_SCALE, else 1.0; a malformed value exits 64. */
inline double
benchScale()
{
    double scale = 1.0;
    if (const char *s = std::getenv("WB_BENCH_SCALE"))
        if (!wb::parseFlag("WB_BENCH_SCALE", s, wb::minScale,
                           wb::maxScale, scale))
            std::exit(64);
    return scale;
}

/** Worker count for a harness: -j N argument, else WB_JOBS env,
 *  else 0 (= one worker per hardware thread); a malformed count
 *  exits 64. */
inline int
campaignJobs(int argc, char **argv)
{
    const char *arg = std::getenv("WB_JOBS");
    const char *name = "WB_JOBS";
    for (int i = 1; i + 1 < argc; ++i)
        if (!std::strcmp(argv[i], "-j")) {
            arg = argv[i + 1];
            name = "-j";
            break;
        }
    int jobs = 0;
    if (arg && !wb::parseFlag(name, arg, 0, 4096, jobs))
        std::exit(64);
    return jobs;
}

/** The paper's 16-core machine for a commit mode / class: the
 *  config of a paper campaign's job (the machine does not depend
 *  on the workload). */
inline wb::SystemConfig
paperConfig(wb::CommitMode mode,
            wb::CoreClass cls = wb::CoreClass::SLM)
{
    const wb::CampaignSpec spec = wb::paperCampaign({mode}, {cls}, 1.0);
    return spec.configFor(spec.expand().front());
}

/** Run a paper campaign on the worker pool. */
inline wb::CampaignResult
runPaperCampaign(const wb::CampaignSpec &spec, int jobs)
{
    wb::CampaignRunner::Options opts;
    opts.jobs = jobs;
    wb::CampaignRunner runner(spec, opts);
    return runner.run();
}

/**
 * Footer for every campaign-driven harness: incomplete runs (the
 * ones runBenchmark used to only WARN about) are surfaced in the
 * output proper, alongside any abnormal classified outcome.
 */
inline void
reportIncomplete(const wb::CampaignResult &result)
{
    const wb::CampaignSummary &s = result.summary;
    if (s.incomplete || s.hardFailures() || s.deadlocks)
        std::printf("\nWARNING: %zu/%zu runs incomplete "
                    "(%zu deadlock, %zu panic, %zu tso, %zu "
                    "infra) — figures above undercount them\n",
                    s.incomplete, s.done, s.deadlocks, s.panics,
                    s.tsoViolations, s.infraFailures);
}

/**
 * Serial runs (the ablations iterate a parameter at a time; table2
 * runs litmus machines) go through runChecked(): a run that hit
 * maxCycles is warned about on stderr and tallied in
 * runIncomplete(), and reportRunIncomplete() flags the rows it skews
 * instead of folding it in silently.
 */
inline int &
runIncomplete()
{
    static int n = 0;
    return n;
}

/** Run a built System (@p what names it in the warning); its
 *  stats() stay readable afterwards. */
inline wb::SimResults
runChecked(wb::System &sys, const std::string &what)
{
    wb::SimResults r = sys.run();
    if (!r.completed) {
        ++runIncomplete();
        std::fprintf(stderr, "WARNING: %s did not complete\n",
                     what.c_str());
    }
    return r;
}

/** Run one benchmark profile on the paper machine. */
inline wb::SimResults
runBenchmark(const std::string &name, wb::CommitMode mode,
             wb::CoreClass cls, double scale)
{
    wb::Workload wl = wb::makeBenchmark(name, 16, scale);
    wb::System sys(paperConfig(mode, cls), wl);
    return runChecked(sys, name + " (" + wb::commitModeName(mode) +
                               "/" + wb::coreClassName(cls) + ")");
}

/** Footer for the serial ablation harnesses. */
inline void
reportRunIncomplete()
{
    if (runIncomplete())
        std::printf("\nWARNING: %d runs did not complete; their "
                    "rows undercount\n",
                    runIncomplete());
}

inline void
printRule(int width = 78)
{
    for (int i = 0; i < width; ++i)
        std::putchar('-');
    std::putchar('\n');
}

} // namespace wbench

#endif // WB_BENCH_COMMON_HH

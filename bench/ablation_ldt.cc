/**
 * @file
 * Ablation for the Section 4.2 design choice: the Lockdown Table
 * (LDT) size. When the LDT fills, M-speculative loads stop
 * committing out-of-order, so a tiny LDT degrades towards safe OoO
 * commit while the paper's 32 entries should be ample ("at any
 * time, there is only a small number of M-speculative loads that
 * can commit out-of-order").
 */

#include <cstdio>

#include "bench_common.hh"

int
main()
{
    using namespace wb;
    const double scale = wbench::benchScale();
    const int sizes[] = {0, 1, 2, 4, 8, 16, 32, 64};
    // Memory-bound profiles where OoO commit matters most.
    const char *names[] = {"bodytrack", "ocean_ncp", "lu_ncb",
                           "fft", "radix", "streamcluster"};

    std::printf("Ablation: LDT size sweep (Section 4.2), OoO+WB, "
                "SLM-class, 16 cores (scale %.2f)\n",
                scale);
    std::printf("normalised execution time vs in-order commit "
                "(lower is better)\n\n");
    std::printf("%-15s", "benchmark");
    for (int s : sizes)
        std::printf(" %7s%-2d", "ldt", s);
    std::printf("\n");
    wbench::printRule(15 + 10 * int(std::size(sizes)));

    for (const char *name : names) {
        SimResults io = wbench::runBenchmark(
            name, CommitMode::InOrder, CoreClass::SLM, scale);
        std::printf("%-15s", name);
        for (int s : sizes) {
            Workload wl = makeBenchmark(name, 16, scale);
            SystemConfig cfg =
                wbench::paperConfig(CommitMode::OooWB);
            cfg.core.ldtSize = s;
            System sys(cfg, wl);
            SimResults r = wbench::runChecked(
                sys, std::string(name) + " (ldt " +
                         std::to_string(s) + ")");
            std::printf(" %9.3f",
                        double(r.cycles) / double(io.cycles));
        }
        std::printf("\n");
    }
    std::printf("\npaper: a handful of entries captures nearly all "
                "of the benefit; 32 is never the limiter\n"
                "(ldt0 disables OoO commit of reordered loads "
                "entirely, approximating safe OoO commit).\n");
    wbench::reportRunIncomplete();
    return 0;
}

/**
 * @file
 * Ablation: interconnect latency sensitivity. The paper's central
 * premise is that WritersBlock works on a *general unordered
 * network*; this harness sweeps the mesh switch-to-switch latency
 * and shows the OoO+WB speedup (and correctness) persists as the
 * network slows down — longer miss latencies widen the reordering
 * window, so the mechanism matters more, not less.
 */

#include <cstdio>

#include "bench_common.hh"

int
main()
{
    using namespace wb;
    const double scale = wbench::benchScale();
    const Tick hop_latencies[] = {2, 6, 12, 24};
    const char *names[] = {"ocean_ncp", "fft", "bodytrack",
                           "streamcluster"};

    std::printf("Ablation: mesh switch-to-switch latency sweep "
                "(scale %.2f)\n",
                scale);
    std::printf("normalised time of OoO+WB vs in-order commit at "
                "each hop latency\n\n");
    std::printf("%-15s", "benchmark");
    for (Tick h : hop_latencies)
        std::printf("   hop=%-5llu",
                    static_cast<unsigned long long>(h));
    std::printf("\n");
    wbench::printRule(15 + 12 * int(std::size(hop_latencies)));

    for (const char *name : names) {
        std::printf("%-15s", name);
        for (Tick h : hop_latencies) {
            Workload wl = makeBenchmark(name, 16, scale);
            SystemConfig io = wbench::paperConfig(
                CommitMode::InOrder);
            io.mesh.hopLatency = h;
            const std::string hop =
                " (hop " + std::to_string(h) + ")";
            System s1(io, wl);
            SimResults r1 =
                wbench::runChecked(s1, name + (" in-order" + hop));

            SystemConfig wb_cfg =
                wbench::paperConfig(CommitMode::OooWB);
            wb_cfg.mesh.hopLatency = h;
            System s2(wb_cfg, wl);
            SimResults r2 =
                wbench::runChecked(s2, name + (" ooo-wb" + hop));
            std::printf("   %9.3f",
                        r1.cycles ? double(r2.cycles) /
                                        double(r1.cycles)
                                  : 0.0);
        }
        std::printf("\n");
    }
    std::printf("\nslower networks widen the load-reordering "
                "window: the WritersBlock speedup grows.\n");
    wbench::reportRunIncomplete();
    return 0;
}

/**
 * @file
 * Ablation: next-line prefetching in the private caches. Not part
 * of the paper's evaluation — included to show the WritersBlock
 * machinery composes with a prefetcher (prefetches are plain GetS
 * transactions and obey the same WritersBlock rules) and to
 * quantify the effect on the reproduction's workloads.
 */

#include <cstdio>

#include "bench_common.hh"

int
main()
{
    using namespace wb;
    const double scale = wbench::benchScale();
    std::printf("Ablation: next-line prefetch (OoO+WB, SLM-class, "
                "16 cores, scale %.2f)\n\n",
                scale);
    std::printf("%-15s %12s %12s %10s %12s %10s\n", "benchmark",
                "time(off)", "time(on)", "norm-time", "prefetches",
                "tso");
    wbench::printRule(78);

    double sum = 0;
    int n = 0;
    bool violated = false;
    for (const std::string &name : benchmarkNames()) {
        SimResults off = wbench::runBenchmark(
            name, CommitMode::OooWB, CoreClass::SLM, scale);

        Workload wl = makeBenchmark(name, 16, scale);
        SystemConfig cfg = wbench::paperConfig(CommitMode::OooWB);
        cfg.mem.prefetchNextLine = true;
        cfg.checker = true; // prove prefetching stays TSO-correct
        System sys(cfg, wl);
        SimResults on = wbench::runChecked(sys, name + " (prefetch)");
        const std::uint64_t pf = sys.stats().sum("l1.*.prefetches");

        const double nt =
            off.cycles ? double(on.cycles) / double(off.cycles)
                       : 1.0;
        sum += nt;
        ++n;
        violated |= on.tsoViolations != 0;
        std::printf("%-15s %12llu %12llu %10.4f %12llu %10s\n",
                    name.c_str(),
                    static_cast<unsigned long long>(off.cycles),
                    static_cast<unsigned long long>(on.cycles), nt,
                    static_cast<unsigned long long>(pf),
                    on.tsoViolations == 0 ? "clean" : "VIOLATED");
    }
    wbench::printRule(78);
    std::printf("%-15s %36.4f\n", "average", sum / n);
    wbench::reportRunIncomplete();
    return violated ? 1 : 0;
}

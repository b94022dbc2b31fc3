/**
 * @file
 * Quickstart: build a racy two-core litmus (Table 1 of the paper),
 * run it on the full simulated machine with out-of-order commit +
 * WritersBlock, and show that the illegal TSO outcome never occurs
 * even though reordered loads commit irrevocably.
 *
 *   $ ./quickstart
 */

#include <cstdio>

#include "system/system.hh"
#include "workload/litmus.hh"

int
main()
{
    using namespace wb;

    constexpr int iterations = 2000;

    // The Table 1 message-passing race:
    //   core 0: ld ra, y[i] ; ld rb, x[i]
    //   core 1: st x[i], 1  ; st y[i], 1
    Workload wl = makeLitmus(LitmusKind::Table1, iterations);

    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.setMode(CommitMode::OooWB); // lockdown core + WB protocol
    std::printf("config: %s\n", describeConfig(cfg).c_str());

    System sys(cfg, wl);
    SimResults r = sys.run();

    std::printf("\nran %llu instructions in %llu cycles "
                "(%s, checker %s)\n",
                static_cast<unsigned long long>(r.instructions),
                static_cast<unsigned long long>(r.cycles),
                r.completed ? "completed" : "TIMED OUT",
                r.tsoViolations == 0 ? "clean" : "VIOLATED");

    std::printf("\noutcomes over %d iterations {ld y, ld x}:\n",
                iterations);
    for (const auto &[pair, count] : countOutcomes(
             [&sys](Addr a) { return sys.peekCoherent(a); },
             iterations)) {
        const bool illegal = illegalOutcome(LitmusKind::Table1, pair);
        std::printf("  {%llu, %llu} x %-6d %s\n",
                    static_cast<unsigned long long>(pair.first),
                    static_cast<unsigned long long>(pair.second),
                    count,
                    illegal ? "<-- ILLEGAL IN TSO" : "");
    }

    std::printf("\nWritersBlock activity:\n"
                "  lockdowns set        %llu\n"
                "  lockdowns seen (inv) %llu\n"
                "  writes delayed (WB)  %llu\n"
                "  tear-off reads       %llu\n"
                "  loads committed OoO  %llu\n",
                static_cast<unsigned long long>(r.lockdownsSet),
                static_cast<unsigned long long>(r.lockdownsSeen),
                static_cast<unsigned long long>(r.wbEntries),
                static_cast<unsigned long long>(r.uncacheableReads),
                static_cast<unsigned long long>(r.ldtExports));

    const bool ok = r.completed && r.tsoViolations == 0;
    std::printf("\n%s\n", ok ? "TSO preserved without a single "
                               "squash-for-consistency."
                             : "something went wrong!");
    return ok ? 0 : 1;
}

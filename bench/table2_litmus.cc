/**
 * @file
 * Tables 1-3 reproduction: run the paper's litmus races on the full
 * machine and classify every observed outcome against the legal TSO
 * interleavings of Table 2.
 *
 *   paper: Table 2 lists five legal interleavings; the loaded value
 *   pairs they permit are {old,old}, {old,new}, {new,new}. The
 *   illegal interleaving (6) — {new,old} — must NEVER be observed
 *   with in-order commit, safe OoO commit, or OoO+WritersBlock; the
 *   deliberately unsafe commit mode is run as a control and *does*
 *   produce it.
 *
 * Exits 1 when a legal commit mode shows {new,old} or a checker
 * violation.
 */

#include <cstdio>

#include "bench_common.hh"
#include "workload/litmus.hh"

namespace
{

using namespace wb;

struct Row
{
    const char *mode;
    OutcomeCounts outcomes;
    SimResults results;
};

/** The machine every row runs: four cores, checker on. */
SystemConfig
litmusConfig(CommitMode mode)
{
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.checker = true;
    cfg.setMode(mode);
    return cfg;
}

Row
runOne(LitmusKind kind, CommitMode mode, int iters)
{
    Workload wl = makeLitmus(kind, iters);
    System sys(litmusConfig(mode), wl);
    Row row;
    row.mode = commitModeName(mode);
    row.results = wbench::runChecked(
        sys, std::string(litmusName(kind)) + " (" + row.mode + ")");
    row.outcomes = countOutcomes(
        [&sys](Addr a) { return sys.peekCoherent(a); }, iters);
    return row;
}

/** @return true when a legal mode was not TSO-clean. */
bool
printTable(LitmusKind kind, int iters, bool include_unsafe)
{
    std::printf("\n== %s (%d racing iterations) ==\n",
                litmusName(kind), iters);
    std::printf("%-18s %10s %10s %10s %12s %8s %10s\n", "mode",
                "{old,old}", "{old,new}", "{new,new}",
                "{new,old}!!", "tso-ok", "wb-delays");
    wbench::printRule(84);
    std::vector<CommitMode> modes = {CommitMode::InOrder,
                                     CommitMode::OooSafe,
                                     CommitMode::OooWB};
    if (include_unsafe)
        modes.push_back(CommitMode::OooUnsafe);
    bool legal_failed = false;
    for (CommitMode m : modes) {
        Row r = runOne(kind, m, iters);
        const int oo = r.outcomes[{0, 0}];
        const int on = r.outcomes[{0, 1}];
        const int nn = r.outcomes[{1, 1}];
        const int il = r.outcomes[{1, 0}];
        const bool tso_ok = il == 0 && r.results.tsoViolations == 0;
        legal_failed |= !tso_ok && m != CommitMode::OooUnsafe;
        std::printf("%-18s %10d %10d %10d %12d %8s %10llu\n",
                    r.mode, oo, on, nn, il, tso_ok ? "yes" : "NO",
                    static_cast<unsigned long long>(
                        r.results.wbEntries));
    }
    return legal_failed;
}

} // namespace

int
main()
{
    const int iters = int(3000 * wbench::benchScale());
    std::printf("Litmus reproduction of Tables 1-3 "
                "(config: %s)\n",
                describeConfig(litmusConfig(wb::CommitMode::OooWB))
                    .c_str());
    std::printf("columns show per-iteration {ld y, ld x} value "
                "pairs; {new,old} is interleaving (6),\n"
                "illegal in TSO. 'ooo-unsafe' is the negative "
                "control (no lockdowns, no squash).\n");

    bool failed = printTable(wb::LitmusKind::Table1, iters, true);
    failed |= printTable(wb::LitmusKind::Table3, iters, false);

    // Store buffering: {old,old} is legal in TSO (and must occur,
    // or we built something stronger than TSO).
    {
        using namespace wb;
        std::printf("\n== store-buffering sanity (TSO, not SC) "
                    "==\n");
        Row r = runOne(LitmusKind::StoreBuffer,
                       CommitMode::InOrder, iters);
        const int oo = r.outcomes[{0, 0}];
        std::printf("in-order commit: {0,0} observed %d times "
                    "(> 0 proves the store->load relaxation)\n",
                    oo);
    }
    wbench::reportRunIncomplete();
    return failed ? 1 : 0;
}

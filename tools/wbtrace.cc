/**
 * @file
 * wbtrace — record, inspect, compare and validate `.wbt` traces.
 *
 *   wbtrace record --workload table1 -o t.wbt
 *   wbtrace record --workload radix --seed 7 --cores 4 -o r.wbt
 *   wbtrace info t.wbt
 *   wbtrace diff a.wbt b.wbt
 *   wbtrace verify t.wbt
 *
 * `record` executes the workload on the functional reference model
 * (sequentially consistent, deterministic under the seed); detailed-
 * model recordings come from `wbsim --record-trace` instead. `diff`
 * reports the first divergence between two traces — metadata, memory
 * image, static code or dynamic stream. `verify` re-validates every
 * checksum and semantic limit (docs/TRACES.md).
 *
 * Exit codes:
 *   0  ok / traces identical
 *   1  traces differ
 *   2  corrupt or invalid trace
 *   64 usage error
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "coherence/config.hh"
#include "isa/instr.hh"
#include "sim/parse.hh"
#include "trace/trace_recorder.hh"
#include "trace/trace_workload.hh"
#include "workload/benchmarks.hh"

namespace
{

using namespace wb;

void
usage()
{
    std::printf(
        "usage: wbtrace <command> [arguments]\n"
        "  record --workload NAME -o FILE [--seed N] [--cores N]\n"
        "         [--scale F] [--iters N]\n"
        "                   execute NAME (benchmark profile or\n"
        "                   litmus) on the functional reference\n"
        "                   model and record the trace; --cores\n"
        "                   and --scale size builtin profiles\n"
        "                   only (a litmus has a fixed thread\n"
        "                   count), --iters a litmus only;\n"
        "                   --seed seeds the functional model's\n"
        "                   schedule, and a builtin profile too;\n"
        "                   detailed-model recordings: wbsim\n"
        "                   --record-trace\n"
        "  info FILE        print header fields and per-thread\n"
        "                   instruction histograms\n"
        "  diff A B         report the first divergence between\n"
        "                   two traces\n"
        "  verify FILE      re-validate every checksum and\n"
        "                   semantic limit\n"
        "exit codes: 0 ok / identical, 1 traces differ,\n"
        "            2 corrupt or invalid trace, 64 usage error\n");
}

int
cmdRecord(int argc, char **argv)
{
    std::string workload;
    std::string out;
    // --seed seeds a builtin profile and the functional model's
    // schedule, so it is never a sizing a litmus ignores.
    WorkloadSizing sizing{.threads = 4, .scale = 0.1, .iterations = 200};
    bool cores_given = false;

    for (int i = 0; i < argc; ++i) {
        const std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage();
                std::exit(64);
            }
            return argv[++i];
        };
        bool ok = true; // false: the complaint is printed, exit 64
        if (a == "--workload")
            workload = next();
        else if (a == "-o" || a == "--out")
            out = next();
        else if (a == "--seed")
            ok = parseFlag("--seed", next(), 0, ~std::uint64_t(0),
                           sizing.seed);
        else if (a == "--cores") {
            ok = parseFlag("--cores", next(), 1, maxCores,
                           sizing.threads);
            cores_given = true;
        } else if (a == "--scale") {
            ok = parseFlag("--scale", next(), minScale, maxScale,
                           sizing.scale);
            sizing.scaleGiven = true;
        } else if (a == "--iters") {
            ok = parseFlag("--iters", next(), 1, 100'000'000,
                           sizing.iterations);
            sizing.iterationsGiven = true;
        } else {
            usage();
            return 64;
        }
        if (!ok)
            return 64;
    }
    if (workload.empty() || out.empty()) {
        usage();
        return 64;
    }

    // The name is checked before anything is built: a trace, a
    // recording already, is refused unread.
    const ResolvedWorkload checked =
        resolveWorkload(workload, sizing, false);
    if (!checked.error.empty()) {
        std::fprintf(stderr, "%s\n", checked.error.c_str());
        return 64;
    }
    if (checked.kind == WorkloadKind::Trace) {
        std::fprintf(stderr,
                     "--workload: '%s' is a replayed trace; record "
                     "takes a builtin profile or a litmus\n",
                     workload.c_str());
        return 64;
    }
    const ResolvedWorkload named = resolveWorkload(workload, sizing);
    if (cores_given && named.kind == WorkloadKind::Litmus) {
        std::fprintf(stderr,
                     "--cores: litmus '%s' has a fixed thread "
                     "count (%zu); --cores sizes builtin "
                     "profiles only\n",
                     workload.c_str(),
                     named.workload.threads.size());
        return 64;
    }
    // The functional model's seed: a builtin profile's own (which
    // --seed overrides), or --seed for a litmus, which no seed builds.
    const std::uint64_t seed = named.seed ? named.seed : sizing.seed;

    try {
        const TraceFile t =
            recordFunctional(named.workload, named.source,
                             seed ? seed : 1);
        t.save(out);
        std::printf("trace written to %s (%llu records, "
                    "%zu threads)\n",
                    out.c_str(),
                    static_cast<unsigned long long>(
                        t.recordCount()),
                    t.threads.size());
    } catch (const TraceError &e) {
        std::fprintf(stderr, "record failed: %s\n", e.what());
        return 2;
    }
    return 0;
}

int
cmdInfo(const std::string &path)
{
    TraceFile t;
    try {
        t = TraceFile::load(path);
    } catch (const TraceError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
    std::printf("%-22s %s\n", "name", t.name.c_str());
    std::printf("%-22s %s\n", "source", t.source.c_str());
    std::printf("%-22s %llu\n", "seed",
                static_cast<unsigned long long>(t.seed));
    std::printf("%-22s %u\n", "format version", t.version);
    std::printf("%-22s %016llx\n", "workload fingerprint",
                static_cast<unsigned long long>(t.workloadFp));
    std::printf("%-22s %016llx\n", "content fingerprint",
                static_cast<unsigned long long>(
                    t.contentFingerprint()));
    std::printf("%-22s %zu\n", "threads", t.threads.size());
    std::printf("%-22s %llu\n", "dynamic records",
                static_cast<unsigned long long>(t.recordCount()));
    std::printf("%-22s %zu\n", "initial memory words",
                t.initMem.size());

    for (std::size_t i = 0; i < t.threads.size(); ++i) {
        const TraceThread &th = t.threads[i];
        std::printf("\nthread %zu: %zu static instruction(s), "
                    "%zu retired\n",
                    i, th.code.size(), th.exec.size());
        // Dynamic execution count per static pc.
        std::vector<std::uint64_t> hits(th.code.size() + 1, 0);
        for (const TraceRecord &r : th.exec)
            ++hits[r.pc];
        if (th.code.size() <= 48) {
            // Small program: full disassembly with hit counts.
            for (std::size_t pc = 0; pc < th.code.size(); ++pc)
                std::printf("  %4zu: %-24s x%llu\n", pc,
                            disasm(th.code[pc]).c_str(),
                            static_cast<unsigned long long>(
                                hits[pc]));
            if (hits[th.code.size()])
                std::printf("  %4zu: %-24s x%llu\n",
                            th.code.size(), "(implicit halt)",
                            static_cast<unsigned long long>(
                                hits[th.code.size()]));
        } else {
            // Large program: histogram by mnemonic, most-retired
            // first.
            std::map<std::string, std::uint64_t> mix;
            for (std::size_t pc = 0; pc < th.code.size(); ++pc)
                mix[opcodeName(th.code[pc].op)] += hits[pc];
            std::vector<std::pair<std::string, std::uint64_t>>
                rows(mix.begin(), mix.end());
            std::sort(rows.begin(), rows.end(),
                      [](const auto &a, const auto &b) {
                          return a.second > b.second;
                      });
            for (const auto &[name, count] : rows)
                if (count)
                    std::printf("  %-10s x%llu\n", name.c_str(),
                                static_cast<unsigned long long>(
                                    count));
        }
    }
    return 0;
}

int
cmdDiff(const std::string &pa, const std::string &pb)
{
    TraceFile a, b;
    try {
        a = TraceFile::load(pa);
        b = TraceFile::load(pb);
    } catch (const TraceError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
    const std::string d = diffTraces(a, b);
    if (d.empty()) {
        std::printf("identical: %llu record(s), %zu thread(s)\n",
                    static_cast<unsigned long long>(
                        a.recordCount()),
                    a.threads.size());
        return 0;
    }
    std::printf("first divergence: %s\n", d.c_str());
    return 1;
}

int
cmdVerify(const std::string &path)
{
    try {
        const TraceFile t = TraceFile::load(path);
        std::printf("ok: %s (%zu thread(s), %llu record(s), "
                    "content %016llx)\n",
                    path.c_str(), t.threads.size(),
                    static_cast<unsigned long long>(
                        t.recordCount()),
                    static_cast<unsigned long long>(
                        t.contentFingerprint()));
    } catch (const TraceError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 64;
    }
    const std::string cmd = argv[1];
    if (cmd == "record")
        return cmdRecord(argc - 2, argv + 2);
    if (cmd == "info" && argc == 3)
        return cmdInfo(argv[2]);
    if (cmd == "diff" && argc == 4)
        return cmdDiff(argv[2], argv[3]);
    if (cmd == "verify" && argc == 3)
        return cmdVerify(argv[2]);
    usage();
    return cmd == "--help" || cmd == "-h" ? 0 : 64;
}

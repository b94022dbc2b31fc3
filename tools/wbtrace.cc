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
#include "workload/litmus.hh"
#include "workload/synthetic.hh"

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
    std::uint64_t seed = 0;
    int cores = 4;
    bool cores_given = false;
    double scale = 0.1;
    bool scale_given = false;
    int iters = 200;
    bool iters_given = false;

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
            ok = parseFlag("--seed", next(), 0, ~std::uint64_t(0), seed);
        else if (a == "--cores") {
            ok = parseFlag("--cores", next(), 1, maxCores, cores);
            cores_given = true;
        } else if (a == "--scale") {
            ok = parseFlag("--scale", next(), minScale, maxScale, scale);
            scale_given = true;
        } else if (a == "--iters") {
            ok = parseFlag("--iters", next(), 1, 100'000'000, iters);
            iters_given = true;
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

    Workload wl;
    std::string source;
    std::uint64_t wl_seed = seed;
    LitmusKind lk{};
    if (parseLitmusName(workload, lk)) {
        wl = makeLitmus(lk, iters);
        source = "litmus";
        if (cores_given) {
            std::fprintf(stderr,
                         "--cores: litmus '%s' has a fixed thread "
                         "count (%zu); --cores sizes builtin "
                         "profiles only\n",
                         workload.c_str(), wl.threads.size());
            return 64;
        }
        if (scale_given) {
            std::fprintf(stderr,
                         "--scale: '%s' is a litmus; --scale sizes "
                         "builtin profiles only\n",
                         workload.c_str());
            return 64;
        }
    } else if (!std::ranges::count(benchmarkNames(), workload)) {
        std::fprintf(stderr,
                     "--workload: unknown workload '%s' (see wbsim "
                     "--list)\n",
                     workload.c_str());
        return 64;
    } else if (iters_given) {
        std::fprintf(stderr,
                     "--iters: '%s' is a builtin profile; --iters "
                     "sizes litmus tests only\n",
                     workload.c_str());
        return 64;
    } else {
        SyntheticParams p = benchmarkProfile(workload, scale);
        if (seed)
            p.seed = seed;
        wl = makeSynthetic(p, cores);
        source = "builtin";
        wl_seed = p.seed;
    }

    try {
        const TraceFile t =
            recordFunctional(wl, source, wl_seed ? wl_seed : 1);
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

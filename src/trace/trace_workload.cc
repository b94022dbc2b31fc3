#include "trace/trace_workload.hh"

#include <algorithm>
#include <fstream>

#include "snapshot/system_state.hh"
#include "workload/benchmarks.hh"

namespace wb
{

Workload
traceWorkload(const TraceFile &trace)
{
    Workload wl;
    wl.name = trace.name;
    wl.threads.reserve(trace.threads.size());
    for (const TraceThread &t : trace.threads)
        wl.threads.push_back(t.code);
    wl.initMem = trace.initMem;
    if (workloadFingerprint(wl) != trace.workloadFp)
        throw TraceMismatchError(
            "trace header fingerprint does not match the embedded "
            "programs — recorded by an incompatible build");
    wl.traceFingerprint = trace.contentFingerprint();
    return wl;
}

Workload
loadTraceWorkload(const std::string &path)
{
    return traceWorkload(TraceFile::load(path));
}

ResolvedWorkload
resolveWorkload(const std::string &name, const WorkloadSizing &sizing,
                bool build)
{
    ResolvedWorkload r;
    std::string path; // the FILE of trace=FILE
    if (name.starts_with("trace=")) {
        r.kind = WorkloadKind::Trace;
        path = name.substr(6);
    } else if (parseLitmusName(name, r.litmus))
        r.kind = WorkloadKind::Litmus;
    else if (!std::ranges::count(benchmarkNames(), name)) {
        r.error = "unknown workload '" + name + "' (see wbsim --list)";
        return r;
    }

    // A sizing the caller gave that this kind ignores is refused.
    const bool builtin = r.kind == WorkloadKind::Builtin;
    const bool litmus = r.kind == WorkloadKind::Litmus;
    const char *is = builtin  ? "a builtin profile"
                     : litmus ? "a litmus"
                              : "a replayed trace";
    const auto refuse = [&](const std::string &flag, const char *what) {
        r.error = flag + ": '" + name + "' is " + is + "; " + flag + " " +
                  what;
        return r;
    };
    if (sizing.scaleGiven && !builtin)
        return refuse("--scale", "sizes builtin profiles only");
    if (sizing.iterationsGiven && !litmus)
        return refuse("--iters", "sizes litmus tests only");
    if (sizing.seedGiven && !builtin)
        return refuse("--seed", "seeds builtin profiles only");

    if (!build) {
        // Existence only; checksums and semantic limits are checked
        // when the trace is built.
        if (r.kind == WorkloadKind::Trace &&
            !std::ifstream(path, std::ios::binary))
            r.error = "trace file '" + path + "' does not exist";
        return r;
    }
    switch (r.kind) {
    case WorkloadKind::Builtin: {
        SyntheticParams p = benchmarkProfile(name, sizing.scale);
        if (sizing.seed)
            p.seed = sizing.seed;
        r.workload = makeSynthetic(p, sizing.threads);
        r.source = "builtin";
        r.seed = p.seed;
        break;
    }
    case WorkloadKind::Litmus:
        r.workload = makeLitmus(r.litmus, sizing.iterations);
        r.source = "litmus";
        break;
    case WorkloadKind::Trace: {
        const TraceFile trace = TraceFile::load(path);
        r.workload = traceWorkload(trace);
        r.source = trace.source;
        r.seed = trace.seed;
        break;
    }
    }
    return r;
}

} // namespace wb

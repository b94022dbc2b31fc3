#include "trace/trace_workload.hh"

#include "snapshot/system_state.hh"

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

} // namespace wb

/**
 * @file
 * Replay frontend: lower a validated `.wbt` trace back into a
 * `wb::Workload` and feed it to the unmodified detailed model.
 *
 * A trace embeds the complete static half of the execution it
 * recorded (per-thread programs + initial memory), so replay is not
 * an approximation: the lowered workload drives the OoO core, the
 * TSO checker, the fault injector, recovery, snapshots and campaigns
 * exactly as the generator-built original did, and a deterministic
 * simulator therefore reproduces the recorded run bit-for-bit.
 * Re-recording a replayed run yields a byte-identical `.wbt`
 * (`wbtrace diff` reports no divergence) — the round-trip CI check
 * relies on this.
 *
 * The only difference from the origin workload is
 * Workload::traceFingerprint, set to the trace's content
 * fingerprint so result-cache keys and snapshot compatibility
 * checks distinguish replayed traces from their origins and from
 * each other.
 */

#ifndef WB_TRACE_TRACE_WORKLOAD_HH
#define WB_TRACE_TRACE_WORKLOAD_HH

#include <string>

#include "isa/program.hh"
#include "trace/trace_format.hh"

namespace wb
{

/** The trace decoded, but its recorded origin fingerprint does not
 *  match its embedded programs: it was recorded by a build whose
 *  fingerprint encoding differs (the `trace-mismatch` verdict). */
class TraceMismatchError : public TraceError
{
  public:
    using TraceError::TraceError;
};

/** Lower a decoded trace into a runnable Workload. The name, code
 *  and initial memory are the recorded ones; traceFingerprint is
 *  the trace's contentFingerprint() (never 0). Throws
 *  TraceMismatchError when the header's origin fingerprint does
 *  not match the embedded programs. */
Workload traceWorkload(const TraceFile &trace);

/** Load + validate @p path and lower it; throws TraceError. */
Workload loadTraceWorkload(const std::string &path);

} // namespace wb

#endif // WB_TRACE_TRACE_WORKLOAD_HH

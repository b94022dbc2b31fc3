/**
 * @file
 * Replay frontend: lower a validated `.wbt` trace back into a
 * `wb::Workload` and feed it to the unmodified detailed model; and
 * resolveWorkload(), which turns any workload name a tool or a
 * manifest takes (a builtin profile, a litmus or `trace=FILE`) into
 * its Workload.
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

#include <cstdint>
#include <string>

#include "isa/program.hh"
#include "trace/trace_format.hh"
#include "workload/litmus.hh"

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

/** What a workload name names. */
enum class WorkloadKind
{
    Builtin, //!< a benchmark profile (benchmarkNames())
    Litmus,  //!< a litmus test (litmusNames)
    Trace,   //!< `trace=FILE`, a recorded `.wbt` replayed
};

/**
 * How a caller sizes a named workload: each value is the caller's
 * default unless its `Given` flag says the user set it. A given
 * value the named kind ignores is refused, not dropped. threads
 * sizes a builtin profile only; a litmus or a trace brings its own
 * thread count, and how many cores run it is the caller's rule.
 */
struct WorkloadSizing
{
    int threads = 16;       //!< builtin profile: thread count
    double scale = 1.0;     //!< builtin profile: iteration scale
    int iterations = 2000;  //!< litmus: racing iterations
    std::uint64_t seed = 0; //!< builtin profile; 0 = its own seed
    bool scaleGiven = false;
    bool iterationsGiven = false;
    bool seedGiven = false;
};

/** A resolved workload name (resolveWorkload). */
struct ResolvedWorkload
{
    /** "" when the name is accepted, else the one refusal text. */
    std::string error;
    WorkloadKind kind = WorkloadKind::Builtin;
    LitmusKind litmus{}; //!< when kind == Litmus
    Workload workload;   //!< empty unless built
    /** Provenance a recording writes: the source tag ("builtin",
     *  "litmus", or a trace's own) and the generation seed (a
     *  profile's, 0 for a litmus, or a trace's own). */
    std::string source;
    std::uint64_t seed = 0;
};

/**
 * Resolve @p name — a builtin profile, a litmus or `trace=FILE` —
 * sized by @p sizing. An unknown name, or a given scale or seed for
 * anything but a builtin profile, or given iterations for anything
 * but a litmus, is refused in `error`. With @p build false only the
 * name is checked (a trace only for its file's existence) and
 * nothing is built. Building a trace that does not load throws
 * TraceError (TraceMismatchError for a mismatched header).
 */
ResolvedWorkload resolveWorkload(const std::string &name,
                                 const WorkloadSizing &sizing,
                                 bool build = true);

} // namespace wb

#endif // WB_TRACE_TRACE_WORKLOAD_HH

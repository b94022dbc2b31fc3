/**
 * @file
 * Versioned, checksummed compact binary trace container (`.wbt`).
 *
 * A trace captures one deterministic execution of a Workload: the
 * static per-thread programs (pc-indexed opcode, operands, immediates
 * and register dependencies), the initial memory image, and the
 * per-thread *dynamic* instruction streams — the program-order
 * sequence of retired pcs with the effective address of every memory
 * operation. The static half is enough to lower the trace back into
 * a `wb::Workload` and replay it through the unmodified OoO core
 * (src/trace/trace_workload.hh); the dynamic half is what `wbtrace
 * info`/`diff` inspect and what makes two recordings comparable
 * record-for-record.
 *
 * A `.wbt` file is a sectioned container (sim/codec.hh;
 * docs/CHECKPOINT.md, "Framing") with magic "WBTRACE1", version 1
 * and these header words:
 *
 *   [u64 threadCount] [u64 recordCount] [u64 workloadFingerprint]
 *
 * Every failure mode of hostile or damaged input — wrong magic,
 * unsupported version, truncation anywhere, a flipped bit in a header
 * or payload, a section table that lies about lengths, or a
 * structurally valid payload encoding an impossible instruction
 * (unknown opcode, register >= numRegs, branch target or dynamic pc
 * outside the program) — is detected and classified before any
 * payload byte is trusted.
 *
 * Sections, in fixed order: "meta" (workload name, origin source
 * tag, generation seed), "mem" (initial memory pairs), then per
 * thread i "code<i>" (static program) and "exec<i>" (dynamic
 * stream). All integers little-endian (sim/bytes.hh). Load failures
 * throw TraceError naming the first offence; callers map that onto
 * the `trace-corrupt` exit taxonomy (docs/TRACES.md).
 */

#ifndef WB_TRACE_TRACE_FORMAT_HH
#define WB_TRACE_TRACE_FORMAT_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "isa/program.hh"
#include "sim/bytes.hh"
#include "sim/types.hh"

namespace wb
{

/** Thrown on any trace validation or I/O failure. */
class TraceError : public std::runtime_error
{
  public:
    explicit TraceError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/**
 * One retired dynamic instruction: the static pc it executed and,
 * for memory operations, the effective address. The opcode and
 * register dependencies are those of `code[pc]`; non-memory records
 * carry (and encode) no address.
 */
struct TraceRecord
{
    std::uint32_t pc = 0;
    Addr ea = invalidAddr;

    bool
    operator==(const TraceRecord &o) const
    {
        return pc == o.pc && ea == o.ea;
    }
};

/** One thread's static code plus its retired dynamic stream. */
struct TraceThread
{
    Program code;
    std::vector<TraceRecord> exec;
};

/** An in-memory trace: metadata plus per-thread streams. */
struct TraceFile
{
    static constexpr std::uint64_t magic = 0x3145434152544257ULL;
    //!< "WBTRACE1" little-endian
    static constexpr std::uint32_t version = 1;

    std::string name;          //!< workload name
    std::string source;        //!< origin: builtin | litmus | ...
    std::uint64_t seed = 0;    //!< workload-generation seed
    /** workloadFingerprint() of the *origin* workload (computed with
     *  traceFingerprint = 0); informational, shown by wbtrace info
     *  and cross-checked against the embedded static sections. */
    std::uint64_t workloadFp = 0;
    std::vector<TraceThread> threads;
    std::vector<std::pair<Addr, std::uint64_t>> initMem;

    /** Total dynamic records across all threads. */
    std::uint64_t recordCount() const;

    /**
     * Content fingerprint of the whole trace: FNV over the complete
     * encoded container. Distinct traces (different code, memory,
     * dynamic streams or metadata) get distinct fingerprints; this
     * is what trace-derived workloads carry in
     * Workload::traceFingerprint so the result cache and snapshot
     * fingerprints never collide with the synthetic origin. Never
     * returns 0.
     */
    std::uint64_t contentFingerprint() const;

    /** Encode the whole container. */
    std::vector<unsigned char> encode() const;

    /** Decode + validate a container; throws TraceError naming the
     *  first integrity or format violation. No partially-decoded
     *  trace ever escapes. */
    static TraceFile decode(const void *data, std::size_t len);

    /** Write to @p path atomically (writeFileAtomic); throws
     *  TraceError on I/O failure. */
    void save(const std::string &path) const;

    /** Read + validate @p path; throws TraceError. */
    static TraceFile load(const std::string &path);
};

/**
 * Structural comparison of two traces. Returns "" when identical;
 * otherwise a one-line human-readable report naming the first
 * divergence (metadata field, memory index, thread/pc of the first
 * differing static instruction, or thread/index of the first
 * differing dynamic record).
 */
std::string diffTraces(const TraceFile &a, const TraceFile &b);

} // namespace wb

#endif // WB_TRACE_TRACE_FORMAT_HH

#include "trace/trace_format.hh"

#include <cstdio>

#include "isa/instr.hh"
#include "sim/codec.hh"

namespace wb
{

namespace
{

/** Hard cap on any decoded element count: clamped against the
 *  actual file size, a hostile header becomes a clean "truncated"
 *  diagnosis instead of a huge allocation. */
constexpr std::uint64_t maxSaneLen = 1ULL << 32;

constexpr std::uint8_t maxOpcode =
    static_cast<std::uint8_t>(Opcode::Halt);

[[noreturn]] void
fail(const std::string &what)
{
    throw TraceError("trace: " + what);
}

void
encodeMeta(ByteWriter &w, const TraceFile &t)
{
    w.str(t.name);
    w.str(t.source);
    w.u64(t.seed);
}

void
encodeMem(ByteWriter &w, const TraceFile &t)
{
    w.u64(t.initMem.size());
    for (const auto &[addr, value] : t.initMem) {
        w.u64(addr);
        w.u64(value);
    }
}

void
encodeCode(ByteWriter &w, const Program &code)
{
    w.u64(code.size());
    for (const Instr &in : code) {
        w.u8(static_cast<std::uint8_t>(in.op));
        w.u8(in.dst);
        w.u8(in.src1);
        w.u8(in.src2);
        w.i64(in.imm);
        w.u32(static_cast<std::uint32_t>(in.target));
    }
}

void
encodeExec(ByteWriter &w, const TraceThread &t)
{
    w.u64(t.exec.size());
    for (const TraceRecord &r : t.exec) {
        w.u32(r.pc);
        // The opcode (and hence whether an address follows) is a
        // pure function of the static code — memory ops carry their
        // effective address, nothing else carries anything. pc ==
        // code.size() is the implicit halt of a program that fell
        // off the end; it is never a memory op.
        if (r.pc < t.code.size() && isMem(t.code[r.pc].op))
            w.u64(r.ea);
    }
}

/** Guard a decoded element count against the bytes actually left:
 *  every element of the section costs at least @p min_bytes. */
void
checkCount(std::uint64_t count, std::size_t min_bytes,
           const ByteReader &r, const std::string &what)
{
    if (count > maxSaneLen ||
        count * min_bytes > r.remaining())
        fail(what + " count " + std::to_string(count) +
             " exceeds the section's bytes");
}

void
decodeMeta(ByteReader &r, TraceFile &t)
{
    t.name = r.str();
    t.source = r.str();
    t.seed = r.u64();
}

void
decodeMem(ByteReader &r, TraceFile &t)
{
    const std::uint64_t n = r.u64();
    checkCount(n, 16, r, "initial-memory");
    t.initMem.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        const Addr addr = r.u64();
        const std::uint64_t value = r.u64();
        t.initMem.emplace_back(addr, value);
    }
}

void
decodeCode(ByteReader &r, Program &code, std::size_t thread)
{
    const std::uint64_t n = r.u64();
    checkCount(n, 16, r, "code");
    code.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        Instr in;
        const std::uint8_t op = r.u8();
        if (op > maxOpcode)
            fail("thread " + std::to_string(thread) + " pc " +
                 std::to_string(i) + ": unknown opcode " +
                 std::to_string(op));
        in.op = static_cast<Opcode>(op);
        in.dst = r.u8();
        in.src1 = r.u8();
        in.src2 = r.u8();
        if (in.dst >= numRegs || in.src1 >= numRegs ||
            in.src2 >= numRegs)
            fail("thread " + std::to_string(thread) + " pc " +
                 std::to_string(i) + ": register out of range");
        in.imm = r.i64();
        in.target = static_cast<std::int32_t>(r.u32());
        // Unbound forward labels legitimately point one past the
        // end (ProgramBuilder: "fall off the end" halts).
        if (in.target < 0 || std::uint64_t(in.target) > n)
            fail("thread " + std::to_string(thread) + " pc " +
                 std::to_string(i) + ": branch target " +
                 std::to_string(in.target) +
                 " outside the program");
        code.push_back(in);
    }
}

void
decodeExec(ByteReader &r, TraceThread &t, std::size_t thread)
{
    const std::uint64_t n = r.u64();
    checkCount(n, 4, r, "exec");
    t.exec.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        TraceRecord rec;
        rec.pc = r.u32();
        // pc == code.size() is the implicit halt of a fall-off-end
        // program; anything beyond that is corruption.
        if (rec.pc > t.code.size())
            fail("thread " + std::to_string(thread) + " record " +
                 std::to_string(i) + ": pc " +
                 std::to_string(rec.pc) +
                 " outside the program");
        if (rec.pc < t.code.size() && isMem(t.code[rec.pc].op))
            rec.ea = r.u64();
        t.exec.push_back(rec);
    }
}

} // namespace

std::uint64_t
TraceFile::recordCount() const
{
    std::uint64_t n = 0;
    for (const TraceThread &t : threads)
        n += t.exec.size();
    return n;
}

std::uint64_t
TraceFile::contentFingerprint() const
{
    const std::vector<unsigned char> bytes = encode();
    const std::uint64_t fp = fnv1a64(bytes.data(), bytes.size());
    // 0 is the "not a trace" marker in Workload::traceFingerprint;
    // steer clear of it.
    return fp ? fp : 0x9e3779b97f4a7c15ULL;
}

std::vector<unsigned char>
TraceFile::encode() const
{
    std::vector<Section> sections;
    auto section = [&sections](std::string name, auto &&emit) {
        ByteWriter w;
        emit(w);
        sections.push_back({std::move(name), w.take()});
    };
    section("meta", [&](ByteWriter &w) { encodeMeta(w, *this); });
    section("mem", [&](ByteWriter &w) { encodeMem(w, *this); });
    for (std::size_t i = 0; i < threads.size(); ++i)
        section("code" + std::to_string(i), [&](ByteWriter &w) {
            encodeCode(w, threads[i].code);
        });
    for (std::size_t i = 0; i < threads.size(); ++i)
        section("exec" + std::to_string(i), [&](ByteWriter &w) {
            encodeExec(w, threads[i]);
        });
    return encodeSectioned(magic, version,
                           {threads.size(), recordCount(), workloadFp},
                           sections);
}

TraceFile
TraceFile::decode(const void *data, std::size_t len)
{
    try {
        SectionedReader r(
            {static_cast<const unsigned char *>(data), len}, magic,
            version, 3);
        const std::uint64_t nthreads = r.word(0);
        const std::uint64_t nrecords = r.word(1);
        TraceFile out;
        out.workloadFp = r.word(2);
        if (nthreads > maxSaneLen || nthreads * 4 > r.remaining())
            fail("thread count " + std::to_string(nthreads) +
                 " exceeds the file's bytes");
        if (r.sectionCount() != 2 + 2 * nthreads)
            fail("section count " + std::to_string(r.sectionCount()) +
                 " does not match " + std::to_string(nthreads) +
                 " thread(s)");
        out.threads.resize(nthreads);

        // Sections appear in a fixed order and each payload must be
        // consumed exactly.
        auto expect = [&](const std::string &name, auto &&parse) {
            ByteReader pr(r.next(name).second);
            parse(pr);
            if (!pr.atEnd())
                fail("section '" + name + "' has " +
                     std::to_string(pr.remaining()) +
                     " trailing byte(s)");
        };

        expect("meta",
               [&](ByteReader &pr) { decodeMeta(pr, out); });
        expect("mem", [&](ByteReader &pr) { decodeMem(pr, out); });
        for (std::uint64_t i = 0; i < nthreads; ++i)
            expect("code" + std::to_string(i), [&](ByteReader &pr) {
                decodeCode(pr, out.threads[i].code,
                           std::size_t(i));
            });
        for (std::uint64_t i = 0; i < nthreads; ++i)
            expect("exec" + std::to_string(i), [&](ByteReader &pr) {
                decodeExec(pr, out.threads[i], std::size_t(i));
            });
        r.finish();
        if (out.recordCount() != nrecords)
            fail("header claims " + std::to_string(nrecords) +
                 " dynamic record(s), sections hold " +
                 std::to_string(out.recordCount()));
        return out;
    } catch (const ByteCodecError &e) {
        fail(e.what()); // truncated mid-field
    }
}

void
TraceFile::save(const std::string &path) const
{
    std::string err;
    if (!writeFileAtomic(path, encode(), err))
        fail(err);
}

TraceFile
TraceFile::load(const std::string &path)
{
    std::vector<unsigned char> bytes;
    std::string err;
    if (!readFileBytes(path, bytes, err))
        fail(err);
    return decode(bytes.data(), bytes.size());
}

std::string
diffTraces(const TraceFile &a, const TraceFile &b)
{
    if (a.name != b.name)
        return "meta: name '" + a.name + "' vs '" + b.name + "'";
    if (a.source != b.source)
        return "meta: source '" + a.source + "' vs '" + b.source +
               "'";
    if (a.seed != b.seed)
        return "meta: seed " + std::to_string(a.seed) + " vs " +
               std::to_string(b.seed);
    if (a.threads.size() != b.threads.size())
        return "thread count " + std::to_string(a.threads.size()) +
               " vs " + std::to_string(b.threads.size());
    if (a.initMem != b.initMem) {
        const std::size_t n =
            std::min(a.initMem.size(), b.initMem.size());
        for (std::size_t i = 0; i < n; ++i)
            if (a.initMem[i] != b.initMem[i])
                return "initial memory entry " + std::to_string(i) +
                       " differs";
        return "initial memory size " +
               std::to_string(a.initMem.size()) + " vs " +
               std::to_string(b.initMem.size());
    }
    for (std::size_t t = 0; t < a.threads.size(); ++t) {
        const Program &ca = a.threads[t].code;
        const Program &cb = b.threads[t].code;
        const std::size_t n = std::min(ca.size(), cb.size());
        for (std::size_t pc = 0; pc < n; ++pc) {
            const Instr &x = ca[pc];
            const Instr &y = cb[pc];
            if (x != y)
                return "thread " + std::to_string(t) + " code pc " +
                       std::to_string(pc) + ": " + disasm(x) +
                       " vs " + disasm(y);
        }
        if (ca.size() != cb.size())
            return "thread " + std::to_string(t) + " code length " +
                   std::to_string(ca.size()) + " vs " +
                   std::to_string(cb.size());
    }
    for (std::size_t t = 0; t < a.threads.size(); ++t) {
        const auto &ea = a.threads[t].exec;
        const auto &eb = b.threads[t].exec;
        const std::size_t n = std::min(ea.size(), eb.size());
        for (std::size_t i = 0; i < n; ++i)
            if (!(ea[i] == eb[i]))
                return "thread " + std::to_string(t) + " record " +
                       std::to_string(i) + ": pc " +
                       std::to_string(ea[i].pc) + " ea 0x" +
                       [](Addr v) {
                           char buf[24];
                           std::snprintf(buf, sizeof(buf), "%llx",
                                         static_cast<unsigned long
                                                     long>(v));
                           return std::string(buf);
                       }(ea[i].ea) +
                       " vs pc " + std::to_string(eb[i].pc);
        if (ea.size() != eb.size())
            return "thread " + std::to_string(t) +
                   " dynamic length " + std::to_string(ea.size()) +
                   " vs " + std::to_string(eb.size());
    }
    return "";
}

} // namespace wb

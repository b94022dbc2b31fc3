#include "obs/perfetto.hh"

#include <cinttypes>
#include <cstdio>
#include <string>

#include "system/json_writer.hh"

namespace wb
{

namespace
{

// Process ids grouping the thread tracks.
constexpr int pidCores = 1;
constexpr int pidBanks = 2;
constexpr int pidVnets = 3;
constexpr int pidGauges = 4; //!< timeline occupancy counter tracks

int
pidOf(EvUnit u)
{
    switch (u) {
      case EvUnit::Core:
      case EvUnit::L1:
        return pidCores;
      case EvUnit::LLC: return pidBanks;
      case EvUnit::VNet: return pidVnets;
    }
    return pidCores;
}

std::string
hexLine(Addr a)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%" PRIx64, std::uint64_t(a));
    return buf;
}

void
metadata(JsonWriter &w, const char *what, int pid, int tid,
         const std::string &name)
{
    w.openObject();
    w.field("name", std::string(what));
    w.field("ph", std::string("M"));
    w.fieldSigned("pid", pid);
    w.fieldSigned("tid", tid);
    w.openObject("args");
    w.field("name", name);
    w.closeObject();
    w.closeObject();
}

/** A complete ("X") slice: [ts - dur, ts] on the event's track. */
void
slice(JsonWriter &w, const ObsEvent &e, const std::string &name,
      const char *cat)
{
    w.openObject();
    w.field("name", name);
    w.field("cat", std::string(cat));
    w.field("ph", std::string("X"));
    w.field("ts", std::uint64_t(e.tick - Tick(e.arg)));
    w.field("dur", e.arg);
    w.fieldSigned("pid", pidOf(e.unit));
    w.fieldSigned("tid", e.id);
    w.closeObject();
}

/** A thread-scoped instant ("i") event. */
void
instant(JsonWriter &w, const ObsEvent &e, const std::string &name,
        const char *cat)
{
    w.openObject();
    w.field("name", name);
    w.field("cat", std::string(cat));
    w.field("ph", std::string("i"));
    w.field("s", std::string("t"));
    w.field("ts", std::uint64_t(e.tick));
    w.fieldSigned("pid", pidOf(e.unit));
    w.fieldSigned("tid", e.id);
    if (e.addr || e.arg) {
        w.openObject("args");
        if (e.addr)
            w.field("line", hexLine(e.addr));
        if (e.kind == EvKind::NetEnqueue ||
            e.kind == EvKind::NetDeliver) {
            w.fieldSigned("src", std::int64_t(e.arg >> 32));
            w.fieldSigned("dst",
                          std::int64_t(e.arg & 0xffffffffULL));
        } else if (e.arg) {
            w.field("arg", e.arg);
        }
        w.closeObject();
    }
    w.closeObject();
}

/** One counter ("C") sample on a named track in the gauge group. */
void
counter(JsonWriter &w, Tick ts, std::string_view name,
        std::uint64_t v)
{
    w.openObject();
    w.field("name", std::string(name));
    w.field("ph", std::string("C"));
    w.field("ts", std::uint64_t(ts));
    w.fieldSigned("pid", pidGauges);
    w.openObject("args");
    w.field("value", v);
    w.closeObject();
    w.closeObject();
}

} // namespace

void
writePerfettoTrace(std::ostream &os, const FlightRecorder &rec,
                   int num_cores, int num_banks,
                   const TimelineSampler *timeline)
{
    JsonWriter w(os);
    w.openObject();
    w.openArray("traceEvents");

    metadata(w, "process_name", pidCores, 0, "cores");
    metadata(w, "process_name", pidBanks, 0, "llc banks");
    metadata(w, "process_name", pidVnets, 0, "network vnets");
    if (timeline && !timeline->samples().empty())
        metadata(w, "process_name", pidGauges, 0, "occupancy gauges");
    for (int i = 0; i < num_cores; ++i)
        metadata(w, "thread_name", pidCores, i,
                 "core " + std::to_string(i));
    for (int i = 0; i < num_banks; ++i)
        metadata(w, "thread_name", pidBanks, i,
                 "llc " + std::to_string(i));
    static const char *vnetNames[] = {"vnet request", "vnet forward",
                                      "vnet response"};
    for (int v = 0; v < 3; ++v)
        metadata(w, "thread_name", pidVnets, v, vnetNames[v]);

    for (const ObsEvent &e : rec.tail()) {
        switch (e.kind) {
          case EvKind::TxnEnd:
            // Duration rides in the event, so transactions whose
            // begin fell off the ring still export as full slices.
            slice(w, e, "txn " + hexLine(e.addr), "txn");
            break;
          case EvKind::LockRelease:
            slice(w, e, "lockdown " + hexLine(e.addr), "lockdown");
            break;
          case EvKind::WbExit:
            slice(w, e, "writersblock " + hexLine(e.addr),
                  "writersblock");
            break;
          case EvKind::TxnBegin:
          case EvKind::TxnData:
          case EvKind::LockAcquire:
          case EvKind::Commit:
            // Implied by (or too dense next to) the slices above.
            break;
          default:
            instant(w, e, evKindName(e.kind), evUnitName(e.unit));
            break;
        }
    }

    if (timeline) {
        for (const TimelineRow &row : timeline->samples())
            for (std::size_t i = 0; i < timelineColumns.size(); ++i)
                counter(w, row.cycle, timelineColumns[i].track,
                        row.values[i]);
    }

    w.closeArray();
    w.field("displayTimeUnit", std::string("ms"));
    w.closeObject();
    os << '\n';
}

} // namespace wb

/**
 * @file
 * The headline results of one simulation, and the one table that
 * names each scalar result counter.
 *
 * Every module that lists the counters — System::snapshot(), the
 * JSON run report, the JobResult codec (journal records, cache
 * entries, worker frames) and wbperf's fingerprint — loops over
 * resultFields instead of naming fields, so a counter added to the
 * struct and the table reaches all of them. The table order is the
 * byte order of the report and the codec, and the fingerprinted rows
 * are wbperf's fingerprint order: append new rows only at the end.
 */

#ifndef WB_SIM_RESULTS_HH
#define WB_SIM_RESULTS_HH

#include <array>
#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace wb
{

/** Aggregated results of one simulation. */
struct SimResults
{
    bool completed = false;  //!< every thread halted
    bool deadlocked = false; //!< a hang detector fired
    /** Which detector fired: "" | "commit-watchdog" |
     *  "transaction-timeout" | "message-leak" | "teardown-leak". */
    std::string deadlockReason;
    Tick cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t atomics = 0;

    // network
    std::uint64_t flitHops = 0;
    std::uint64_t messages = 0;
    std::uint64_t leakedMessages = 0; //!< undelivered at end of run

    // fault campaign
    std::uint64_t faultsDropped = 0;
    std::uint64_t faultsDuplicated = 0;
    std::uint64_t faultsDelayed = 0;

    // recovery layer (all zero when recovery is disabled, except the
    // delivery-order statistics, which are always collected)
    bool recoveryEnabled = false;
    std::uint64_t retransmits = 0;    //!< transport re-sends of drops
    std::uint64_t recoveredMessages = 0; //!< drops delivered/retired
    std::uint64_t arqReissues = 0;    //!< L1 request re-issues
    std::uint64_t arqRecovered = 0;   //!< transactions completed
                                      //!< after >= 1 re-issue
    std::uint64_t dedupHits = 0;      //!< duplicate deliveries eaten
    std::uint64_t orphansAbsorbed = 0; //!< replayed grants absorbed
    std::array<std::uint64_t, 3> dupDelivered{}; //!< per vnet
    std::array<std::uint64_t, 3> oooDelivered{}; //!< per vnet

    // WritersBlock / protocol events
    std::uint64_t wbEntries = 0;      //!< directory WritersBlocks
    std::uint64_t wbEncounters = 0;   //!< writes deferred at a WB
    std::uint64_t uncacheableReads = 0;
    std::uint64_t nacksSent = 0;
    std::uint64_t ackReleases = 0;
    std::uint64_t lockdownsSet = 0;
    std::uint64_t lockdownsSeen = 0;
    std::uint64_t ldtExports = 0;
    std::uint64_t oooCommits = 0;

    // squashes
    std::uint64_t squashBranch = 0;
    std::uint64_t squashDspec = 0;
    std::uint64_t squashInv = 0;

    // stall breakdown (summed over cores, in core-cycles)
    std::uint64_t stallRob = 0;
    std::uint64_t stallLq = 0;
    std::uint64_t stallSq = 0;
    std::uint64_t stallOther = 0;
    std::uint64_t coreCycles = 0;

    std::uint64_t tsoViolations = 0;

    double
    wbPerKiloStore() const
    {
        return stores ? 1000.0 * double(wbEntries) / double(stores)
                      : 0.0;
    }
    double
    uncReadsPerKiloLoad() const
    {
        return loads ? 1000.0 * double(uncacheableReads) /
                           double(loads)
                     : 0.0;
    }
};

/** One scalar SimResults counter and the names it goes by. */
struct ResultField
{
    const char *key;                  //!< JSON report key
    std::uint64_t SimResults::*count = nullptr; //!< the counter
    /** StatRegistry::sum pattern System::snapshot() reads; nullptr
     *  when the System computes the value itself. */
    const char *stat = nullptr;
    bool fingerprinted = false; //!< part of wbperf's fingerprint
    bool SimResults::*flag = nullptr; //!< the one boolean result
};

/** Every scalar result, in report and codec order. */
inline constexpr std::array<ResultField, 36> resultFields{{
    {"cycles", &SimResults::cycles, nullptr, true},
    {"instructions", &SimResults::instructions, "core.*.commits", true},
    {"loads", &SimResults::loads, "core.*.loads", true},
    {"stores", &SimResults::stores, "core.*.stores", true},
    {"atomics", &SimResults::atomics, "core.*.atomics", true},
    {"flitHops", &SimResults::flitHops, "net.flitHops", true},
    {"messages", &SimResults::messages, "net.messages", true},
    {"leakedMessages", &SimResults::leakedMessages},
    {"faultsDropped", &SimResults::faultsDropped, "net.faultDropped"},
    {"faultsDuplicated", &SimResults::faultsDuplicated,
     "net.faultDuplicated"},
    {"faultsDelayed", &SimResults::faultsDelayed, "net.faultDelayed"},
    {.key = "recoveryEnabled", .flag = &SimResults::recoveryEnabled},
    {"retransmits", &SimResults::retransmits, "net.retransmits"},
    {"recoveredMessages", &SimResults::recoveredMessages,
     "net.recovered"},
    {"arqReissues", &SimResults::arqReissues, "l1.*.arqReissues"},
    {"arqRecovered", &SimResults::arqRecovered, "l1.*.arqRecovered"},
    {"dedupHits", &SimResults::dedupHits, "*.*.dedupHits"},
    {"orphansAbsorbed", &SimResults::orphansAbsorbed,
     "l1.*.orphansAbsorbed"},
    {"writersBlockEntries", &SimResults::wbEntries,
     "llc.*.writersBlockEntries", true},
    {"writersBlockEncounters", &SimResults::wbEncounters,
     "llc.*.writersBlockEncounters", true},
    {"uncacheableReads", &SimResults::uncacheableReads,
     "llc.*.uncacheableReads", true},
    {"nacksSent", &SimResults::nacksSent, "l1.*.nacksSent", true},
    {"ackReleases", &SimResults::ackReleases, "l1.*.ackReleases",
     true},
    {"lockdownsSet", &SimResults::lockdownsSet, "core.*.lockdownsSet",
     true},
    {"lockdownsSeen", &SimResults::lockdownsSeen,
     "core.*.lockdownsSeen"},
    {"ldtExports", &SimResults::ldtExports, "core.*.ldtExports", true},
    {"oooCommits", &SimResults::oooCommits, "core.*.oooCommits", true},
    {"squashBranch", &SimResults::squashBranch, "core.*.squashBranch",
     true},
    {"squashDspec", &SimResults::squashDspec, "core.*.squashDspec",
     true},
    {"squashInv", &SimResults::squashInv, "core.*.squashInv", true},
    {"stallRob", &SimResults::stallRob, "core.*.stallRobFull", true},
    {"stallLq", &SimResults::stallLq, "core.*.stallLqFull", true},
    {"stallSq", &SimResults::stallSq, "core.*.stallSqFull", true},
    {"stallOther", &SimResults::stallOther, "core.*.stallOther"},
    {"coreCycles", &SimResults::coreCycles, "core.*.cycles", true},
    {"tsoViolations", &SimResults::tsoViolations},
}};

/** The stat pattern a SimResults counter sums. */
constexpr const char *
resultStat(std::uint64_t SimResults::*count)
{
    for (const ResultField &f : resultFields)
        if (f.count == count)
            return f.stat;
    return nullptr;
}

} // namespace wb

#endif // WB_SIM_RESULTS_HH

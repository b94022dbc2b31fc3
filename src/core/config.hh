/**
 * @file
 * Core configuration (Table 6 presets).
 */

#ifndef WB_CORE_CONFIG_HH
#define WB_CORE_CONFIG_HH

#include <string>

#include "sim/types.hh"

namespace wb
{

/** How the core retires instructions. */
enum class CommitMode
{
    /** Retire strictly from the ROB head. */
    InOrder,
    /**
     * Safe out-of-order commit (Bell–Lipasti): all six conditions,
     * including consistency — a reordered load cannot commit until
     * it is ordered.
     */
    OooSafe,
    /**
     * Out-of-order commit with WritersBlock: reordered loads commit
     * immediately, exporting their lockdowns to the LDT (Section 4).
     * Requires a lockdown core (SystemConfig::validate).
     */
    OooWB,
    /**
     * NEGATIVE CONTROL: commit reordered loads with no lockdown
     * protection on the baseline protocol. Violates TSO by design;
     * used to prove the checker catches real violations.
     */
    OooUnsafe,
};

const char *commitModeName(CommitMode m);

/** Parse "in-order" | "ooo-safe" | "ooo-writersblock" (alias
 *  "ooo-wb") | "ooo-unsafe". @return false on unknown name. */
bool parseCommitMode(const std::string &s, CommitMode &out);

struct CoreConfig
{
    int fetchWidth = 4;
    int commitWidth = 4;
    int iqSize = 16;
    int robSize = 32;
    int lqSize = 10;
    int sqSize = 16;
    int sbSize = 16;
    int ldtSize = 32;
    int cachePorts = 2;        //!< load issues per cycle
    Tick mispredictPenalty = 8;
    CommitMode commitMode = CommitMode::InOrder;
    /**
     * In-order (stall-on-use) issue: instructions enter execution
     * strictly in program order and a not-ready instruction blocks
     * everything younger. Models the paper's first motivating use
     * case — EV5-style early commit of loads (ECL), where a load
     * miss does not stall until its value is used, so younger loads
     * can still perform out of order and need the same
     * consistency machinery. Default: full out-of-order issue.
     */
    bool inOrderIssue = false;

    /**
     * Lockdown core (may answer an invalidation with Nack, which
     * the directory meets with WritersBlock) vs baseline
     * squash-and-re-execute core (always answers with Ack).
     */
    bool lockdown = false;
};

/** Table 6 processor classes. */
enum class CoreClass { SLM, NHM, HSW };

const char *coreClassName(CoreClass c);

/** Parse "SLM" | "NHM" | "HSW" (or lower case). */
bool parseCoreClass(const std::string &s, CoreClass &out);

/** Build the Table 6 configuration for a processor class. */
CoreConfig makeCoreConfig(CoreClass cls);

} // namespace wb

#endif // WB_CORE_CONFIG_HH

/**
 * @file
 * Litmus-test workloads for the paper's running examples.
 *
 * Each litmus runs many iterations over fresh cache lines so the
 * racing window is exercised repeatedly; per-iteration results are
 * stored to a private result array and classified from final memory
 * by countOutcomes().
 *
 *  - Table 1 (mp-style): writer st x,1; st y,1 — reader ld y; ld x.
 *    Outcome {y=new, x=old} is illegal in TSO.
 *  - Table 3: three cores; the happens-before between st x and st y
 *    is transitive through core 2's spin on x.
 *  - SB (store buffering): st x; ld y || st y; ld x. Outcome {0,0}
 *    is LEGAL in TSO (store->load relaxation) and should occur.
 *  - CoRR: same-address load pairs must never read new-then-old.
 */

#ifndef WB_WORKLOAD_LITMUS_HH
#define WB_WORKLOAD_LITMUS_HH

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "isa/program.hh"

namespace wb
{

/** Which litmus shape to build. */
enum class LitmusKind
{
    Table1,  //!< 2-core mp: illegal = {new, old}
    Table3,  //!< 3-core transitive hb: illegal = {new, old}
    StoreBuffer, //!< 2-core SB: {old, old} legal & expected
    CoRR,    //!< same-address pair: illegal = {new, old}
    LoadBuffer,  //!< ld x; st y || ld y; st x — {new,new} illegal
                 //!< (TSO never relaxes load->store)
    StoreBufferFenced, //!< SB with an mfence between the store and
                       //!< the load: {old,old} becomes ILLEGAL
    Iriw,    //!< 4-core IRIW: readers must agree on the order of
             //!< independent writes (multi-copy atomicity; also
             //!< forbidden in TSO). Encoded outcomes: each reader
             //!< records first*2+second; illegal = {2, 2}.
};

const char *litmusName(LitmusKind k);

/** A command-line litmus name and its `wbsim --list` note. */
struct LitmusName
{
    const char *name;
    LitmusKind kind;
    const char *note;
};

/** Every command-line litmus name, in `wbsim --list` order. */
inline constexpr LitmusName litmusNames[] = {
    {"table1", LitmusKind::Table1,
     "paper Table 1: ld-ld reordering witness"},
    {"table3", LitmusKind::Table3, "paper Table 3: fine-grain sharing"},
    {"sb", LitmusKind::StoreBuffer, "store buffering (Dekker)"},
    {"sb-fence", LitmusKind::StoreBufferFenced,
     "store buffering with fences"},
    {"lb", LitmusKind::LoadBuffer, "load buffering"},
    {"corr", LitmusKind::CoRR, "coherent read-read"},
    {"iriw", LitmusKind::Iriw, "independent reads, independent writes"},
};

/** Map a command-line litmus name (litmusNames) onto @p kind.
 *  @return false for any other name. */
bool parseLitmusName(const std::string &name, LitmusKind &kind);

/** Build a litmus workload with @p iterations racing iterations. */
Workload makeLitmus(LitmusKind kind, int iterations);

/** One iteration's outcome: {first value, second value}. */
using Outcome = std::pair<std::uint64_t, std::uint64_t>;

/** Outcome counts keyed by outcome. */
using OutcomeCounts = std::map<Outcome, int>;

/** Functional word reader (use System::peekCoherent: the result
 *  arrays are usually still dirty in the reader's cache). */
using PeekFn = std::function<std::uint64_t(Addr)>;

/**
 * Classify per-iteration results.
 * For Table1/Table3/CoRR the pair is {ra, rb} of the reader; the
 * illegal TSO outcome is {1, 0}.
 */
OutcomeCounts countOutcomes(const PeekFn &peek, int iterations);

/** @return true when TSO forbids outcome @p o of litmus @p kind. */
bool illegalOutcome(LitmusKind kind, const Outcome &o);

/** @return the number of TSO-illegal outcomes for @p kind. */
int illegalOutcomes(LitmusKind kind, const OutcomeCounts &oc);

} // namespace wb

#endif // WB_WORKLOAD_LITMUS_HH

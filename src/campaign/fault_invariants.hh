/**
 * @file
 * The fault-campaign safety invariants that
 * `wbcampaign --builtin fault` asserts on every run:
 *
 *  1. no run ever ends in a TSO violation or unclassified;
 *  2. an "ok" verdict really is clean (completed, no leaks);
 *  3. a dropped message is always accounted for: without the
 *     recovery layer it is diagnosed as a deadlock whose crash
 *     report names a stuck MSHR or the undelivered message; with
 *     recovery armed it either heals (clean completion, every drop
 *     retired as recovered) or — once the retry budget is exhausted
 *     — still ends in the classified deadlock with a crash report;
 *  4. fault-free ("clean" mix) runs never degrade;
 *  5. infrastructure failures never survive the retry budget;
 *  6. an equivalence mismatch (verify-equivalence mode) is always a
 *     violation.
 */

#ifndef WB_CAMPAIGN_FAULT_INVARIANTS_HH
#define WB_CAMPAIGN_FAULT_INVARIANTS_HH

#include <string>
#include <vector>

#include "campaign/campaign_runner.hh"

namespace wb
{

/**
 * Check every job of a finished fault campaign against the
 * invariants above. @return one human-readable line per violation
 * (empty = campaign holds).
 */
std::vector<std::string>
checkFaultInvariants(const CampaignResult &result);

/**
 * The PR-1 fault-soak grid as a campaign: 3 commit modes x 6 fault
 * mixes (clean / delay / reorder / dup / drop / storm) x @p seeds
 * seeds of a sharing-heavy synthetic workload on the 4-core
 * adversarial (ideal, jittered) machine with tight watchdogs.
 * 28 seeds = the historical 504-run campaign.
 */
CampaignSpec faultCampaignSpec(int seeds = 28);

} // namespace wb

#endif // WB_CAMPAIGN_FAULT_INVARIANTS_HH

/**
 * @file
 * Thread-safe result aggregation and campaign report emission.
 *
 * CampaignAggregator keeps the live, order-independent tallies the
 * runner's progress line reads while workers are still going (all
 * counters are commutative, so the final summary is deterministic).
 * The per-cell reductions and the JSON/CSV emitters instead walk the
 * finished, index-ordered job vector, which makes every emitted byte
 * independent of worker count and scheduling: the acceptance
 * guarantee that `-j1` and `-j8` campaigns produce byte-identical
 * aggregate output rests on this split.
 *
 * Output schema: "wbsim-campaign-1" (docs/CAMPAIGN.md).
 */

#ifndef WB_CAMPAIGN_CAMPAIGN_AGGREGATOR_HH
#define WB_CAMPAIGN_CAMPAIGN_AGGREGATOR_HH

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/campaign_runner.hh"

namespace wb
{

/** min / mean / max / sum reduction over one uint64 metric. */
struct MetricSummary
{
    std::uint64_t min = ~std::uint64_t(0);
    std::uint64_t max = 0;
    std::uint64_t sum = 0;
    std::size_t n = 0;

    void
    add(std::uint64_t v)
    {
        min = v < min ? v : min;
        max = v > max ? v : max;
        sum += v;
        ++n;
    }

    double mean() const { return n ? double(sum) / double(n) : 0.0; }
};

/** One aggregation cell (see CampaignSpec::cellKey). */
struct CellSummary : OutcomeTally
{
    std::string key;
    std::size_t count = 0;

    MetricSummary cycles;
    MetricSummary instructions;
    MetricSummary wbEntries;
    MetricSummary uncacheableReads;
    MetricSummary faultsDropped;
    MetricSummary leakedMessages;
    MetricSummary retransmits;
    MetricSummary recoveredMessages;
};

/** Live tallies; every member function is thread-safe. */
class CampaignAggregator
{
  public:
    explicit CampaignAggregator(std::size_t total);

    /** Fold one finished job into the tallies. */
    void record(const JobResult &r);

    /** Consistent snapshot for progress display / final summary. */
    CampaignSummary summary() const;

  private:
    mutable std::mutex _mu;
    CampaignSummary _sum;
};

/** Deterministic per-cell reduction over the ordered job list,
 *  cells in first-appearance (= expansion) order. */
std::vector<CellSummary> reduceCells(const CampaignSpec &spec,
                                     const std::vector<JobResult> &jobs);

/** Emit the aggregate campaign report (schema wbsim-campaign-1).
 *  Byte-identical for a given spec regardless of worker count. */
void writeCampaignJson(std::ostream &os, const CampaignSpec &spec,
                       const CampaignResult &result);

/** The per-job CSV's header row (no newline). The result cache
 *  hashes it into every key (resultSchemaFingerprint), so a column
 *  change invalidates cached entries. */
inline constexpr std::string_view campaignCsvHeader =
    "index,workload,mode,class,variant,mix,seedIndex,seed,"
    "faultSeed,verdict,exitCode,attempts,completed,cycles,"
    "instructions,loads,stores,atomics,wbEntries,"
    "uncacheableReads,messages,leakedMessages,faultsDropped,"
    "faultsDuplicated,faultsDelayed,tsoViolations,"
    "retransmits,recoveredMessages,arqReissues,dedupHits,"
    "equivalence";

/** One CSV row per job (stable header; see docs/CAMPAIGN.md). */
void writeCampaignCsv(std::ostream &os, const CampaignResult &result);

} // namespace wb

#endif // WB_CAMPAIGN_CAMPAIGN_AGGREGATOR_HH

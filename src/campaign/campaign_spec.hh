/**
 * @file
 * Declarative campaign specifications.
 *
 * A CampaignSpec names the axes of an experiment sweep — workloads,
 * commit modes, core classes, config variants, fault mixes, and a
 * seed count — plus the machine parameters shared by every run.
 * expand() turns the spec into a flat, deterministically ordered job
 * list (the cross product, workload-major), and every per-job RNG
 * seed is derived purely from the spec (base seed + axis *values*),
 * never from scheduling or completion order. Two consequences the
 * rest of the subsystem relies on:
 *
 *  - a campaign's results are bit-identical regardless of the worker
 *    count or the order jobs happen to finish in;
 *  - adding or removing values on one axis does not perturb the
 *    seeds of the surviving jobs.
 *
 * Specs can be built programmatically (the bench harnesses do, using
 * the configHook/workloadFactory escape hatches) or parsed from a
 * small line-based manifest (see docs/CAMPAIGN.md for the grammar).
 */

#ifndef WB_CAMPAIGN_CAMPAIGN_SPEC_HH
#define WB_CAMPAIGN_CAMPAIGN_SPEC_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "system/system.hh"

namespace wb
{

/** One fault mix on the fault axis ("" spec = fault-free). */
struct CampaignMix
{
    std::string name = "clean";
    std::string spec; //!< parseFaultSpec grammar; "" = no faults
};

/** One fully-resolved job: a point in the campaign's cross product. */
struct JobSpec
{
    std::size_t index = 0; //!< position in the expanded job list
    std::string workload;  //!< benchmark profile name (or factory tag)
    CommitMode mode = CommitMode::OooWB;
    CoreClass cls = CoreClass::SLM;
    std::string variant;   //!< opaque tag consumed by configHook
    std::string mixName = "clean";
    std::string faultSpec; //!< "" = fault-free
    int seedIndex = 0;
    /** Workload seed, derived from (baseSeed, workload, seedIndex)
     *  only, so the same program is simulated across modes/classes/
     *  mixes and timing comparisons stay apples-to-apples. */
    std::uint64_t seed = 0;
    /** Fault-injector seed; additionally mixes in mode/mix so fault
     *  streams decorrelate across cells. */
    std::uint64_t faultSeed = 0;
};

/**
 * The declarative sweep description. Every axis left at its default
 * contributes a single value to the cross product.
 */
struct CampaignSpec
{
    std::string name = "campaign";

    // -- axes ----------------------------------------------------
    /** Workload axis entries are benchmark profile names
     *  (benchmarkNames()) or `trace=FILE` — a recorded `.wbt` trace
     *  replayed through the detailed model (docs/TRACES.md), as
     *  resolveWorkload() reads them; a litmus is refused. Trace
     *  entries ignore the per-job seed: the workload is fully
     *  determined by the file. */
    std::vector<std::string> workloads;
    std::vector<CommitMode> modes{CommitMode::OooWB};
    std::vector<CoreClass> classes{CoreClass::SLM};
    /** Opaque variant tags; applied by configHook. {""} = none. */
    std::vector<std::string> variants{std::string()};
    std::vector<CampaignMix> mixes{CampaignMix{}};
    int seeds = 1;
    std::uint64_t baseSeed = 1;
    /** Keep each benchmark profile's own seed instead of the derived
     *  per-job seed (the figure harnesses reproduce the paper's
     *  fixed-program runs this way). */
    bool useProfileSeed = false;

    // -- machine shared by all jobs -----------------------------
    /** Every job's machine, which the manifest keys set and
     *  configFor() copies: SystemConfig's defaults but for
     *  ideal-network jitter 10 and a 400M-cycle cap. Recovery and
     *  observability are off unless set; with a flight recorder or
     *  timeline on, the runner writes per-job files next to the
     *  campaign results. */
    SystemConfig machine = [] {
        SystemConfig m;
        m.ideal.jitter = 10;
        m.maxCycles = 400'000'000;
        return m;
    }();
    double scale = 1.0; //!< builtin profiles' iteration scale

    /** Bounded retry budget for runner-infrastructure failures. */
    int maxRetries = 1;

    // -- programmatic escape hatches (not expressible in manifests)
    /** Applied to each job's SystemConfig after the declarative
     *  fields (use the variant tag to branch). Must be pure. */
    std::function<void(const JobSpec &, SystemConfig &)> configHook;
    /** Replaces the default benchmarkProfile()-based workload
     *  construction. Must be pure (same JobSpec => same Workload). */
    std::function<Workload(const JobSpec &, const CampaignSpec &)>
        workloadFactory;

    /**
     * Expand into the deterministic job list. Loop nesting order
     * (outermost first): workload, mode, class, variant, mix, seed.
     */
    std::vector<JobSpec> expand() const;

    /** Number of jobs expand() will produce. */
    std::size_t jobCount() const;

    /** Build the SystemConfig for one job: the machine with the
     *  job's core class and commit mode, the mesh fitted to the core
     *  count, the job's fault mix parsed and seeded, and configHook
     *  applied last. */
    SystemConfig configFor(const JobSpec &job) const;

    /** Build the workload for one job. */
    Workload workloadFor(const JobSpec &job) const;

    /**
     * Aggregation cell key for a job: the job's values on every
     * non-seed axis that has more than one value in this spec (mode
     * and mix are always included), joined with '/'. Seeds within a
     * cell are the population the aggregator reduces over.
     */
    std::string cellKey(const JobSpec &job) const;

    /** @return "" when the spec is runnable, else a diagnostic (for
     *  a job's machine, SystemConfig::validate's). */
    std::string validate() const;
};

/**
 * Campaign spec for a paper sweep: every benchmark profile on the
 * paper's 16-core machine, crossed with the given mode/class axes.
 * Profiles keep their own fixed seeds so each benchmark runs the
 * same program in every cell and timing ratios compare like for
 * like. The figure harnesses and wbperf's fig cells expand it.
 */
CampaignSpec paperCampaign(std::vector<CommitMode> modes,
                           std::vector<CoreClass> classes,
                           double scale);

/**
 * Derive a 64-bit seed from the spec's base seed and a list of
 * axis-value strings plus one integer (the seed index). Stable
 * across campaign layout changes; exposed for tests.
 */
std::uint64_t deriveSeed(std::uint64_t base,
                         const std::vector<std::string> &axes,
                         std::uint64_t n);

/**
 * Parse a campaign manifest (docs/CAMPAIGN.md grammar): one
 * `key = value` or `mix NAME [SPEC]` directive per line, '#'
 * comments. @return true on success; on failure @p err carries
 * "line N: what".
 */
bool parseCampaignSpec(std::istream &in, CampaignSpec &out,
                       std::string &err);

/** Load a manifest from @p path. */
bool loadCampaignSpec(const std::string &path, CampaignSpec &out,
                      std::string &err);

} // namespace wb

#endif // WB_CAMPAIGN_CAMPAIGN_SPEC_HH

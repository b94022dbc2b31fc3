#include "campaign/fault_invariants.hh"

#include <sstream>

#include "workload/synthetic.hh"

namespace wb
{

std::vector<std::string>
checkFaultInvariants(const CampaignResult &result)
{
    std::vector<std::string> failures;
    for (const JobResult &r : result.jobs) {
        auto fail = [&](const std::string &what) {
            std::ostringstream os;
            os << "job " << r.spec.index << " ("
               << commitModeName(r.spec.mode) << "/"
               << r.spec.mixName << " seed " << r.spec.seed
               << "): " << what << " (verdict=" << r.verdict
               << " detail=" << r.detail << ")";
            failures.push_back(os.str());
        };

        // Invariant 5: infrastructure failures are retried away.
        if (r.infraFailure) {
            fail("infrastructure failure survived retries");
            continue;
        }

        // Invariant 1: never a TSO violation, never unclassified.
        if (r.outcome == RunOutcome::TsoViolation)
            fail("TSO violation under faults");
        if (r.verdict.empty())
            fail("unclassified outcome");

        // Invariant 2: a clean completion really is clean.
        if (r.outcome == RunOutcome::Ok &&
            (r.results.leakedMessages != 0 || !r.results.completed))
            fail("ok verdict with leaks/incomplete");

        // Invariant 3: a lost message is always accounted for.
        if (r.results.faultsDropped > 0) {
            if (r.results.recoveryEnabled) {
                // Recovery armed: the drop either healed (clean
                // completion, every ledger entry retired) or the
                // retry budget ran out and the run still ends in
                // the PR-1 classified verdict with a crash report.
                if (r.outcome == RunOutcome::Ok) {
                    if (r.results.leakedMessages != 0)
                        fail("recovered run leaked messages");
                    if (r.results.recoveredMessages == 0)
                        fail("drop healed but none counted "
                             "recovered");
                } else if (r.outcome == RunOutcome::Deadlock) {
                    if (r.crashJson.find("\"mshrs\":[{") ==
                            std::string::npos &&
                        r.crashJson.find("\"dropped\":true") ==
                            std::string::npos)
                        fail("crash dump names no stuck txn");
                } else {
                    fail("drop under recovery neither healed nor "
                         "classified as deadlock");
                }
            } else {
                // No recovery: PR-1 semantics — always a diagnosed
                // deadlock whose crash report names a stuck MSHR or
                // the undelivered message.
                if (r.outcome != RunOutcome::Deadlock)
                    fail("drop not diagnosed as deadlock");
                if (r.crashJson.find("\"mshrs\":[{") ==
                        std::string::npos &&
                    r.crashJson.find("\"dropped\":true") ==
                        std::string::npos)
                    fail("crash dump names no stuck txn");
            }
        }

        // Invariant 4: the fault-free control column never
        // degrades.
        if (r.spec.faultSpec.empty() &&
            r.outcome != RunOutcome::Ok)
            fail("fault-free control failed");

        // Invariant 6: a recovered run must be observationally
        // identical to its fault-free twin.
        if (r.equivalenceChecked && !r.equivalenceMatch)
            fail("end state diverges from fault-free twin: " +
                 r.equivalenceDetail);
    }
    return failures;
}

CampaignSpec
faultCampaignSpec(int seeds)
{
    CampaignSpec spec;
    spec.name = "fault-soak";
    spec.workloads = {"fault-campaign"};
    spec.modes = {CommitMode::InOrder, CommitMode::OooSafe,
                  CommitMode::OooWB};
    spec.mixes = {
        {"clean", ""},
        {"delay", "delay=0.02:150"},
        {"reorder", "reorder=0.04:8:64"},
        {"dup", "dup=0.015"},
        {"drop", "drop=0.008:2"},
        {"storm", "delay=0.02:100,reorder=0.03:6:48,dup=0.01"},
    };
    spec.seeds = seeds;
    spec.baseSeed = 1000;
    SystemConfig &m = spec.machine;
    m.numCores = 4;
    m.network = NetworkKind::Ideal;
    m.ideal.jitter = 8;
    m.maxCycles = 4'000'000;
    m.watchdogCycles = 40'000;
    m.txnWarnCycles = 6'000;
    m.txnDeadlockCycles = 20'000;
    m.watchdogPollCycles = 256;
    m.teardownDrainCycles = 25'000;
    spec.workloadFactory = [](const JobSpec &job,
                              const CampaignSpec &s) {
        SyntheticParams p;
        p.name = "fault-campaign";
        p.iterations = 12;
        p.bodyOps = 20;
        p.privateWords = 512;
        p.sharedWords = 128;
        p.memRatio = 0.45;
        p.storeRatio = 0.35;
        p.sharedRatio = 0.35;
        p.lockRatio = 0.02;
        p.numLocks = 2;
        // When the recovery layer is armed the campaign's point is
        // healing + end-state equivalence, which needs an
        // interleaving-independent final image; without recovery,
        // keep the racier (load-value-dependent) default mix.
        p.singleWriter = s.machine.recovery.enabled;
        p.seed = job.seed;
        return makeSynthetic(p, s.machine.numCores);
    };
    return spec;
}

} // namespace wb

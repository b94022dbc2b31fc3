#include "campaign/campaign_spec.hh"

#include <fstream>
#include <limits>
#include <sstream>

#include "sim/log.hh"
#include "sim/parse.hh"
#include "trace/trace_workload.hh"
#include "workload/benchmarks.hh"

namespace wb
{

namespace
{

/** splitmix64 step — the same generator rng.hh seeds through. */
std::uint64_t
splitmix(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
mixString(std::uint64_t h, const std::string &s)
{
    // FNV-1a over the bytes, then one splitmix pass to spread.
    for (unsigned char c : s)
        h = (h ^ c) * 0x100000001b3ULL;
    return splitmix(h);
}

} // namespace

std::uint64_t
deriveSeed(std::uint64_t base, const std::vector<std::string> &axes,
           std::uint64_t n)
{
    std::uint64_t h = base;
    h = splitmix(h);
    for (const std::string &a : axes)
        h = mixString(h, a);
    h ^= n;
    h = splitmix(h);
    // Seed 0 is legal for Rng but reserved by some callers as "use
    // the profile default"; steer clear of it.
    return h ? h : 0x9e3779b97f4a7c15ULL;
}

std::size_t
CampaignSpec::jobCount() const
{
    return workloads.size() * modes.size() * classes.size() *
           variants.size() * mixes.size() *
           std::size_t(seeds > 0 ? seeds : 0);
}

std::vector<JobSpec>
CampaignSpec::expand() const
{
    std::vector<JobSpec> jobs;
    jobs.reserve(jobCount());
    for (const std::string &wl : workloads)
        for (const CommitMode mode : modes)
            for (const CoreClass cls : classes)
                for (const std::string &variant : variants)
                    for (const CampaignMix &mix : mixes)
                        for (int s = 0; s < seeds; ++s) {
                            JobSpec j;
                            j.index = jobs.size();
                            j.workload = wl;
                            j.mode = mode;
                            j.cls = cls;
                            j.variant = variant;
                            j.mixName = mix.name;
                            j.faultSpec = mix.spec;
                            j.seedIndex = s;
                            j.seed = deriveSeed(
                                baseSeed, {wl}, std::uint64_t(s));
                            j.faultSeed = deriveSeed(
                                baseSeed,
                                {wl, commitModeName(mode),
                                 mix.name},
                                std::uint64_t(s));
                            jobs.push_back(std::move(j));
                        }
    return jobs;
}

SystemConfig
CampaignSpec::configFor(const JobSpec &job) const
{
    SystemConfig cfg = machine;
    cfg.core = makeCoreConfig(job.cls);
    if (cfg.network == NetworkKind::Mesh)
        cfg.mesh.fit(cfg.numCores);
    cfg.setMode(job.mode);
    if (!job.faultSpec.empty()) {
        std::string err;
        if (!parseFaultSpec(job.faultSpec, cfg.faults, err))
            fatal("campaign mix '%s': bad fault spec: %s",
                  job.mixName.c_str(), err.c_str());
        cfg.faults.seed = job.faultSeed;
    }
    if (configHook)
        configHook(job, cfg);
    return cfg;
}

Workload
CampaignSpec::workloadFor(const JobSpec &job) const
{
    if (workloadFactory)
        return workloadFactory(job, *this);
    // A TraceError here (a trace file vanished or corrupted since
    // validate()) propagates out of the job and is classified as an
    // infrastructure failure.
    ResolvedWorkload named = resolveWorkload(
        job.workload, {.threads = machine.numCores,
                       .scale = scale,
                       .seed = useProfileSeed ? 0 : job.seed});
    if (!named.error.empty())
        fatal("campaign: %s", named.error.c_str());
    return std::move(named.workload);
}

CampaignSpec
paperCampaign(std::vector<CommitMode> modes,
              std::vector<CoreClass> classes, double scale)
{
    CampaignSpec spec;
    spec.name = "paper-sweep";
    spec.workloads = benchmarkNames();
    spec.modes = std::move(modes);
    spec.classes = std::move(classes);
    spec.useProfileSeed = true;
    spec.scale = scale;
    spec.machine.checker = false; // timing runs; tests cover correctness
    return spec;
}

std::string
CampaignSpec::cellKey(const JobSpec &job) const
{
    std::string key;
    auto append = [&key](const std::string &part) {
        if (!key.empty())
            key += '/';
        key += part;
    };
    if (workloads.size() > 1)
        append(job.workload);
    append(commitModeName(job.mode));
    if (classes.size() > 1)
        append(coreClassName(job.cls));
    if (variants.size() > 1 && !job.variant.empty())
        append(job.variant);
    append(job.mixName);
    return key;
}

std::string
CampaignSpec::validate() const
{
    if (workloads.empty())
        return "no workloads";
    if (modes.empty() || classes.empty() || variants.empty() ||
        mixes.empty())
        return "an axis is empty";
    if (seeds < 1)
        return "seeds must be >= 1";
    if (maxRetries < 0)
        return "retries must be >= 0";
    if (!workloadFactory)
        for (const std::string &wl : workloads) {
            const ResolvedWorkload named = resolveWorkload(wl, {}, false);
            if (!named.error.empty())
                return named.error;
            // No manifest key sizes a litmus's iterations.
            if (named.kind == WorkloadKind::Litmus)
                return "workload '" + wl + "' is a litmus; a campaign "
                       "runs builtin profiles and trace=FILE";
        }
    for (const CampaignMix &mix : mixes)
        if (!mix.spec.empty()) {
            FaultConfig fc;
            std::string err;
            if (!parseFaultSpec(mix.spec, fc, err))
                return "mix '" + mix.name + "': " + err;
        }
    // Every job's machine by System's own rules (its workload has a
    // thread per core), once the mixes are known to parse.
    for (const JobSpec &job : expand())
        if (std::string bad = configFor(job).validate(machine.numCores);
            !bad.empty())
            return bad;
    return "";
}

namespace
{

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

/** Split on spaces and/or commas. */
std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == ' ' || c == '\t' || c == ',') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

bool
parseBool(const std::string &v, bool &out)
{
    if (v == "on" || v == "true" || v == "1" || v == "yes")
        out = true;
    else if (v == "off" || v == "false" || v == "0" || v == "no")
        out = false;
    else
        return false;
    return true;
}

} // namespace

bool
parseCampaignSpec(std::istream &in, CampaignSpec &out,
                  std::string &err)
{
    // Directives reset the axis they set, so a manifest fully
    // describes its sweep; unset axes keep the defaults.
    bool sawMix = false;
    std::string line;
    int lineno = 0;
    auto fail = [&](const std::string &what) {
        err = "line " + std::to_string(lineno) + ": " + what;
        return false;
    };
    while (std::getline(in, line)) {
        ++lineno;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        line = trim(line);
        if (line.empty())
            continue;

        // "mix NAME [SPEC]" directive (fault specs contain '=').
        if (line.rfind("mix ", 0) == 0 || line == "mix") {
            std::istringstream ls(line);
            std::string kw, name, spec;
            ls >> kw >> name;
            if (name.empty())
                return fail("mix needs a name");
            ls >> spec; // optional; fault specs have no spaces
            if (!sawMix) {
                out.mixes.clear();
                sawMix = true;
            }
            out.mixes.push_back({name, spec});
            continue;
        }

        const std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            return fail("expected 'key = value' or 'mix NAME SPEC'");
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        if (value.empty())
            return fail("empty value for '" + key + "'");

        // A whole-string number in [lo, hi], else the line's error.
        const auto number =
            [&]<class T>(T &field, std::type_identity_t<T> lo = 0,
                         std::type_identity_t<T> hi =
                             std::numeric_limits<T>::max()) {
                const std::string bad =
                    parseNumber(value, lo, hi, field);
                return bad.empty() || fail(key + ": " + bad);
            };
        const auto boolean = [&](bool &field) {
            return parseBool(value, field) ||
                   fail("bad boolean '" + value + "'");
        };
        // A watchdog count; 0 keeps System's default.
        SystemConfig &m = out.machine;
        const auto watchdog = [&](Tick SystemConfig::*field) {
            Tick cycles = 0;
            if (!number(cycles))
                return false;
            m.*field = cycles ? cycles : SystemConfig{}.*field;
            return true;
        };
        bool ok = true;
        if (key == "name") {
            out.name = value;
        } else if (key == "workloads") {
            out.workloads = splitList(value);
        } else if (key == "modes") {
            out.modes.clear();
            for (const std::string &m : splitList(value)) {
                CommitMode mode;
                if (!parseCommitMode(m, mode))
                    return fail("unknown mode '" + m + "'");
                out.modes.push_back(mode);
            }
        } else if (key == "classes") {
            out.classes.clear();
            for (const std::string &c : splitList(value)) {
                CoreClass cls;
                if (!parseCoreClass(c, cls))
                    return fail("unknown class '" + c + "'");
                out.classes.push_back(cls);
            }
        } else if (key == "network") {
            if (!parseNetworkKind(value, m.network))
                return fail("unknown network '" + value + "'");
        } else if (key == "seeds") {
            ok = number(out.seeds, 1);
        } else if (key == "base-seed") {
            ok = number(out.baseSeed);
        } else if (key == "profile-seed") {
            ok = boolean(out.useProfileSeed);
        } else if (key == "cores") {
            ok = number(m.numCores, 1, maxCores);
        } else if (key == "scale") {
            ok = number(out.scale, minScale, maxScale);
        } else if (key == "jitter") {
            // As wbsim --jitter: well below the watchdogs.
            ok = number(m.ideal.jitter, 0, 10'000);
        } else if (key == "checker") {
            ok = boolean(m.checker);
        } else if (key == "max-cycles") {
            ok = number(m.maxCycles, 1);
        } else if (key == "watchdog") {
            ok = watchdog(&SystemConfig::watchdogCycles);
        } else if (key == "txn-warn") {
            ok = watchdog(&SystemConfig::txnWarnCycles);
        } else if (key == "txn-deadlock") {
            ok = watchdog(&SystemConfig::txnDeadlockCycles);
        } else if (key == "poll") {
            ok = watchdog(&SystemConfig::watchdogPollCycles);
        } else if (key == "drain") {
            ok = watchdog(&SystemConfig::teardownDrainCycles);
        } else if (key == "retries") {
            ok = number(out.maxRetries);
        } else if (key == "recovery") {
            ok = boolean(m.recovery.enabled);
        } else if (key == "retry-timeout") {
            ok = number(m.recovery.retryTimeoutCycles);
        } else if (key == "retry-budget") {
            ok = number(m.recovery.retryBudget);
        } else if (key == "recovery-poll") {
            ok = number(m.recovery.pollCycles);
        } else if (key == "retransmit-base") {
            ok = number(m.recovery.retransmitBaseCycles);
        } else if (key == "retransmit-budget") {
            ok = number(m.recovery.retransmitBudget);
        } else if (key == "flight-recorder") {
            ok = number(m.obs.flightRecorder);
        } else if (key == "timeline-period") {
            ok = number(m.obs.timelinePeriod);
        } else if (key == "metrics-period") {
            ok = number(m.obs.metricsPeriod);
        } else {
            return fail("unknown key '" + key + "'");
        }
        if (!ok)
            return false;
    }
    const std::string bad = out.validate();
    if (!bad.empty()) {
        err = bad;
        return false;
    }
    return true;
}

bool
loadCampaignSpec(const std::string &path, CampaignSpec &out,
                 std::string &err)
{
    std::ifstream f(path);
    if (!f) {
        err = "cannot open " + path;
        return false;
    }
    return parseCampaignSpec(f, out, err);
}

} // namespace wb

#include "checker/tso_checker.hh"

#include <cassert>

#include "sim/log.hh"

namespace wb
{

TsoChecker::TsoChecker(int num_cores,
                       std::size_t max_versions_per_word)
    : _maxVersions(max_versions_per_word),
      _watermark(std::size_t(num_cores), 0)
{}

void
TsoChecker::report(CoreId core, Addr addr, Version ver,
                   const std::string &what)
{
    if (_violations.size() < 100)
        _violations.push_back(
            TsoViolation{core, addr, ver, _now, what});
    WB_TRACE(_traceMask, LogFlag::Checker, _now, "tso-checker",
             "VIOLATION core %d addr %llx ver %llu: %s", core,
             static_cast<unsigned long long>(addr),
             static_cast<unsigned long long>(ver), what.c_str());
}

void
TsoChecker::storePerformed(CoreId core, Addr addr,
                           std::uint64_t value, Version ver)
{
    (void)value;
    ++_storesTracked;
    WordHistory &h = _words[wordOf(addr)];
    if (ver != h.lastVer + 1) {
        report(core, addr, ver,
               "write serialisation broken: version " +
                   std::to_string(ver) + " after " +
                   std::to_string(h.lastVer));
        // Resynchronise so one corruption doesn't cascade.
        if (ver <= h.lastVer)
            return;
        while (h.lastVer + 1 < ver) {
            h.starts.push_back(++_gsn);
            ++h.lastVer;
        }
    }
    h.starts.push_back(++_gsn);
    h.lastVer = ver;
    while (h.starts.size() > _maxVersions) {
        h.starts.pop_front();
        ++h.firstVer;
    }
}

TsoChecker::Gsn
TsoChecker::startOf(const WordHistory &h, Version ver) const
{
    if (ver == 0)
        return 0;
    if (ver < h.firstVer)
        return 0; // pruned: weakest safe assumption
    const std::size_t idx = std::size_t(ver - h.firstVer);
    assert(idx < h.starts.size());
    return h.starts[idx];
}

TsoChecker::Gsn
TsoChecker::endOf(const WordHistory &h, Version ver) const
{
    if (ver >= h.lastVer)
        return maxGsn; // still the current version
    return startOf(h, ver + 1);
}

void
TsoChecker::loadCompleted(CoreId core, Addr addr, Version ver,
                          bool forwarded)
{
    ++_loadsChecked;
    Gsn &wm = _watermark[std::size_t(core)];
    const Addr w = wordOf(addr);

    auto it = _words.find(w);
    if (it == _words.end()) {
        // Never-written word: only version 0 exists.
        if (ver != 0 && !forwarded)
            report(core, addr, ver,
                   "load bound a version of an unwritten word");
        return;
    }
    const WordHistory &h = it->second;

    if (!forwarded && ver > h.lastVer) {
        report(core, addr, ver,
               "load bound a version newer than the last "
               "performed store");
        return;
    }
    if (forwarded) {
        // Store->load forwarding: the value is not globally visible
        // yet; TSO places such loads freely w.r.t. other cores.
        return;
    }

    const Gsn end = endOf(h, ver);
    if (end <= wm) {
        report(core, addr, ver,
               "load->load order violated: bound version died at " +
                   std::to_string(end) +
                   " before an older load's version began at " +
                   std::to_string(wm));
        return;
    }
    const Gsn start = startOf(h, ver);
    if (start > wm)
        wm = start;
}

} // namespace wb

/**
 * @file
 * Message-loss recovery layer: configuration, duplicate filtering,
 * and retry backoff shared by the network transport and the
 * coherence endpoints.
 *
 * PR 1 treated a dropped message as unsurvivable: the watchdog
 * classifies the hang and the run exits 3. This layer makes loss a
 * *recoverable* event instead, the way real coherence fabrics
 * (e.g. BedRock's restartable transaction layer) do:
 *
 *  - every injected message carries a per-source sequence number, so
 *    endpoint sinks can discard duplicated deliveries exactly
 *    (DedupFilter) instead of relying on protocol-level tolerance;
 *  - dropped Forward/Response messages are retransmitted by the
 *    network transport itself with bounded exponential backoff —
 *    they carry multi-party transient state an endpoint cannot
 *    reconstruct;
 *  - dropped Request messages are re-issued by the owning L1's ARQ
 *    scan (recoveryScan): a lost request created no directory state,
 *    so a re-issue is indistinguishable from a fresh request;
 *  - only when a retry budget is exhausted does the watchdog
 *    escalate to the classified deadlock verdict of PR 1.
 *
 * Everything here is deterministic: timeouts are fixed cycle counts,
 * backoff is a pure function of the attempt number, and the only
 * randomness consulted (whether a retransmission is itself faulted)
 * comes from the run's single seeded injector stream.
 */

#ifndef WB_RECOVERY_RECOVERY_HH
#define WB_RECOVERY_RECOVERY_HH

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "sim/bytes.hh"
#include "sim/types.hh"

namespace wb
{

/** Knobs of the recovery layer; disabled by default so fault
 *  campaigns keep their PR-1 semantics unless explicitly armed. */
struct RecoveryConfig
{
    bool enabled = false;

    /** L1 ARQ: age (since the last attempt) at which a stalled
     *  request is re-issued. Must comfortably exceed the worst
     *  non-drop delivery latency (delay spike + reorder burst +
     *  jitter), or healthy transactions get spurious retries. */
    Tick retryTimeoutCycles = 2'000;

    /** L1 ARQ: re-issues per transaction before giving up and
     *  letting the watchdog classify the hang. Timeout doubles per
     *  attempt (bounded exponential backoff). */
    unsigned retryBudget = 3;

    /** L1 ARQ: scan interval for stalled MSHR / writeback entries. */
    Tick pollCycles = 256;

    /** Transport ARQ: first retransmission of a dropped
     *  forward/response fires this many cycles after the drop;
     *  doubles per attempt. */
    Tick retransmitBaseCycles = 64;

    /** Transport ARQ: retransmissions per message before the entry
     *  is surrendered to the leak check. */
    unsigned retransmitBudget = 8;

    /** Deterministic bounded exponential backoff: base << attempt,
     *  capped at base << 6. */
    static Tick
    backoff(Tick base, unsigned attempt)
    {
        return base << std::min(attempt, 6u);
    }
};

/**
 * Per-source duplicate filter over message sequence numbers.
 *
 * accept(src, seq) returns true exactly once per (src, seq) pair;
 * the second delivery of a duplicated message — whether injected by
 * the fault oracle or by a retransmission racing its original — is
 * rejected. Sequence number 0 means "never stamped" (a message that
 * bypassed the network, e.g. in unit tests) and is always accepted.
 *
 * The seen-set is pruned against a sliding window so memory stays
 * bounded on long runs: once a source has more than kPruneAbove
 * entries, everything below (maxSeen - kWindow) is forgotten. A
 * duplicate older than the window would be wrongly accepted, but
 * fault duplicates arrive within dupOffsetMax (tens of cycles) of
 * the original, far inside the window.
 *
 * Each source's window is an ascending vector, so its back is the
 * highest sequence number seen: numbers are stamped in send order,
 * a new one almost always lands at the back, and pruning erases a
 * prefix. A source's window exists (is non-empty) from its first
 * stamped delivery on.
 */
class DedupFilter
{
  public:
    /** @return true when this (src, seq) is first-seen. */
    bool
    accept(int src, std::uint64_t seq)
    {
        if (seq == 0)
            return true;
        assert(src >= 0);
        if (std::size_t(src) >= _bySrc.size())
            _bySrc.resize(std::size_t(src) + 1);
        std::vector<std::uint64_t> &seen = _bySrc[std::size_t(src)];
        if (seen.empty() || seq > seen.back()) {
            seen.push_back(seq);
        } else {
            auto it = std::lower_bound(seen.begin(), seen.end(), seq);
            if (*it == seq)
                return false;
            seen.insert(it, seq);
        }
        if (seen.size() > kPruneAbove)
            prune(seen);
        return true;
    }

    /** Snapshot witness: every window, sources ascending, seen
     *  sequence numbers ascending. */
    void
    serializeState(ByteWriter &w) const
    {
        std::uint32_t present = 0;
        for (const std::vector<std::uint64_t> &seen : _bySrc)
            present += !seen.empty();
        w.u32(present);
        for (std::size_t src = 0; src < _bySrc.size(); ++src) {
            const std::vector<std::uint64_t> &seen = _bySrc[src];
            if (seen.empty())
                continue;
            w.i64(std::int64_t(src));
            w.u64(seen.back());
            w.u32(static_cast<std::uint32_t>(seen.size()));
            for (std::uint64_t s : seen)
                w.u64(s);
        }
    }

  private:
    static constexpr std::size_t kPruneAbove = 8'192;
    static constexpr std::uint64_t kWindow = 4'096;

    static void
    prune(std::vector<std::uint64_t> &seen)
    {
        const std::uint64_t max_seen = seen.back();
        const std::uint64_t floor =
            max_seen > kWindow ? max_seen - kWindow : 0;
        seen.erase(seen.begin(),
                   std::lower_bound(seen.begin(), seen.end(), floor));
    }

    /** Seen sequence numbers per source node, ascending. */
    std::vector<std::vector<std::uint64_t>> _bySrc;
};

} // namespace wb

#endif // WB_RECOVERY_RECOVERY_HH

#include "network/network.hh"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <utility>

#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "sim/callback.hh"

namespace wb
{

namespace
{

/** Pack (src, dst) into the 64-bit event argument. */
std::uint64_t
routeArg(const NetMsg &msg)
{
    return (std::uint64_t(std::uint32_t(msg.src)) << 32) |
           std::uint64_t(std::uint32_t(msg.dst));
}

/** Ledger record of message @p m under id @p id, sent at @p snow. */
Network::InFlightMsg
ledgerRecord(std::uint64_t id, const NetMsg &m, Tick snow,
             bool dropped)
{
    return Network::InFlightMsg{id, m.kind(), m.src, m.dst,
                                int(m.vnet), m.debugAddr(), snow,
                                dropped, false};
}

/** Number of entries of heap @p box due at @p t, counted from index
 *  @p i. Nothing in an inbox is due before t, so the arrivals due at
 *  t are the subtree under the heap top. */
template <typename Entry>
std::size_t
dueAt(const std::vector<Entry> &box, std::size_t i, Tick t)
{
    if (i >= box.size() || box[i].at != t)
        return 0;
    return 1 + dueAt(box, 2 * i + 1, t) + dueAt(box, 2 * i + 2, t);
}

} // namespace

Network::Network(std::string name, EventQueue *eq,
                 StatRegistry *stats, int num_nodes)
    : SimObject(std::move(name), eq, stats), _numNodes(num_nodes),
      _handlers(std::size_t(num_nodes)),
      _outboxes(std::size_t(num_nodes)),
      _inbox(std::size_t(num_nodes)),
      _nextArrival(std::size_t(num_nodes), maxTick),
      _lastId(std::size_t(num_nodes), 0),
      _deltas(std::size_t(num_nodes)),
      _srcSeq(std::size_t(num_nodes), 0),
      _dedup(std::size_t(num_nodes)),
      _maxDelivered(std::size_t(num_nodes) * std::size_t(num_nodes) *
                        numVNets,
                    0),
      _messages(statGroup().counter("messages", "messages")),
      _flitHops(statGroup().counter("flitHops", "flit-hops")),
      _faultDropped(statGroup().counter("faultDropped")),
      _faultDuplicated(statGroup().counter("faultDuplicated")),
      _faultDelayed(statGroup().counter("faultDelayed")),
      _retransmits(statGroup().counter("retransmits")),
      _recovered(statGroup().counter("recovered")),
      _dupDelivered{&statGroup().counter("dupDeliveredReq"),
                    &statGroup().counter("dupDeliveredFwd"),
                    &statGroup().counter("dupDeliveredResp")},
      _oooDelivered{&statGroup().counter("oooDeliveredReq"),
                    &statGroup().counter("oooDeliveredFwd"),
                    &statGroup().counter("oooDeliveredResp")},
      _vnetFlitHops{&statGroup().counter("flitHopsReq", "flit-hops"),
                    &statGroup().counter("flitHopsFwd", "flit-hops"),
                    &statGroup().counter("flitHopsResp", "flit-hops")},
      _retxBackoff(statGroup().histogram("retxBackoff", "cycles"))
{}

Network::~Network() = default;

void
Network::registerMetrics(MetricsRegistry &metrics)
{
    metrics.addGauge(name() + ".inFlight", "messages", [this] {
        return std::uint64_t(inFlight());
    });
}

void
Network::registerNode(int node, Handler handler)
{
    assert(node >= 0 && node < _numNodes);
    _handlers[std::size_t(node)] = std::move(handler);
}

void
Network::setRecovery(const RecoveryConfig &rc)
{
    _recovery = rc;
}

void
Network::markRecovered(std::uint64_t id)
{
    if (_dropped.erase(id))
        ++_recovered;
}

std::size_t
Network::inboxRecords() const
{
    std::size_t n = 0;
    for (const std::vector<InboxEntry> &box : _inbox)
        for (const InboxEntry &e : box)
            n += e.copy < 2;
    return n;
}

std::size_t
Network::inFlight() const
{
    std::size_t n = inboxRecords();
    for (const auto &[id, e] : _dropped)
        n += e.retxPending;
    return n;
}

std::size_t
Network::undeliveredCount() const
{
    return inboxRecords() + _dropped.size();
}

std::vector<Network::InFlightMsg>
Network::undelivered() const
{
    std::vector<InFlightMsg> out;
    for (const std::vector<InboxEntry> &box : _inbox)
        for (const InboxEntry &e : box)
            if (e.copy < 2)
                out.push_back(
                    ledgerRecord(e.id, *e.msg, e.snow, false));
    for (const auto &[id, e] : _dropped)
        out.push_back(e);
    std::sort(out.begin(), out.end(),
              [](const InFlightMsg &a, const InFlightMsg &b) {
                  return a.id < b.id;
              });
    return out;
}

void
Network::inboxInsert(int dst, InboxEntry entry)
{
    std::vector<InboxEntry> &box = _inbox[std::size_t(dst)];
    box.push_back(std::move(entry));
    std::push_heap(box.begin(), box.end(), ArrivesAfter{});
    _nextArrival[std::size_t(dst)] = box.front().at;
}

void
Network::send(MsgPtr msg, Tick snow)
{
    assert(msg->src >= 0 && msg->src < _numNodes);
    assert(msg->dst >= 0 && msg->dst < _numNodes);
    // Per-source sequence stamp, issued on the owning shard's
    // thread: per-source send order is tile-local, so the stamps are
    // independent of the host-thread schedule. Retransmissions and
    // fault duplicates reuse the original stamp; every fresh
    // injection (including an ARQ re-issue, which is a new request)
    // gets a new one.
    msg->seq = ++_srcSeq[std::size_t(msg->src)];

    WB_EVENT(recorder(), snow, EvKind::NetEnqueue, EvUnit::VNet,
             int(msg->vnet), Addr(msg->debugAddr()), routeArg(*msg));

    if (msg->src != msg->dst) {
        // Cross-node: buffer for the serial commit phase.
        _outboxes[std::size_t(msg->src)].sends.push_back(
            PendingSend{snow, std::move(msg)});
        return;
    }

    // Node-internal transfer (core <-> its co-located LLC bank):
    // never crosses a shard, so it is modelled inline on the calling
    // thread. Fault injection implies a single-shard run, so the
    // fault-path counters may touch shared state directly.
    ++_deltas[std::size_t(msg->dst)].localMessages;
    place(snow, std::move(msg), localLatency());
}

void
Network::commitOne(Tick snow, MsgPtr msg)
{
    accountTraffic(*msg, hopsOf(*msg));

    // Route first, fault decision second — a dropped packet still
    // occupied the links it crossed before being eaten (and the
    // legacy single-threaded model ordered it the same way).
    const Tick arrival = routeArrival(snow, *msg);
    assert(arrival > snow && "route must cost at least one tick");
    place(snow, std::move(msg), arrival - snow);
}

void
Network::place(Tick snow, MsgPtr msg, Tick latency)
{
    NetMsg &m = *msg;
    FaultDecision d;
    if (_faults)
        d = _faults->next();

    const Tick arrival = snow + latency;
    if (d.drop) {
        ++_faultDropped;
        const std::uint64_t id = newId(m.dst);
        _dropped.emplace(id, ledgerRecord(id, m, snow, true));
        // Transport recovery covers forwards and responses: they
        // carry multi-party transient state no endpoint can rebuild.
        // A dropped *request* created no directory state, so its
        // owner's ARQ re-issue is the recovery path instead; the
        // teardown reclassifier retires this entry once the
        // transaction provably completed.
        if (_recovery.enabled && m.vnet != VNet::Request)
            scheduleRetransmit(id, std::move(msg), latency, 0);
        return;
    }
    if (d.extraDelay > 0)
        ++_faultDelayed;
    if (d.duplicate) {
        ++_faultDuplicated;
        const std::uint64_t dup_id = newId(m.dst);
        inboxInsert(m.dst,
                    InboxEntry{arrival + d.extraDelay + d.dupOffset,
                               snow, m.seq, m.src, 1, dup_id, msg});
    }
    const std::uint64_t id = newId(m.dst);
    inboxInsert(m.dst, InboxEntry{arrival + d.extraDelay, snow, m.seq,
                                  m.src, 0, id, std::move(msg)});
}

void
Network::commitSends()
{
    // Empty every source outbox, then order the whole batch by the
    // canonical (send-tick, source, sequence) key. The key is unique
    // (seq is per-source monotone) and a pure function of per-source
    // program order, so the processing order — and with it every
    // fault draw, link claim, jitter draw, and ledger id — is
    // independent of how sources were interleaved across threads.
    for (Outbox &box : _outboxes) {
        _batch.insert(_batch.end(),
                      std::make_move_iterator(box.sends.begin()),
                      std::make_move_iterator(box.sends.end()));
        box.sends.clear();
    }
    std::sort(_batch.begin(), _batch.end(),
              [](const PendingSend &a, const PendingSend &b) {
                  if (a.snow != b.snow)
                      return a.snow < b.snow;
                  if (a.msg->src != b.msg->src)
                      return a.msg->src < b.msg->src;
                  return a.msg->seq < b.msg->seq;
              });
    for (PendingSend &p : _batch)
        commitOne(p.snow, std::move(p.msg));
    _batch.clear();

    // Fold the per-node delivery-statistic deltas into the shared
    // counters in node order (partition-independent).
    for (NodeDelta &nd : _deltas) {
        _messages += nd.localMessages;
        for (std::size_t v = 0; v < numVNets; ++v) {
            *_dupDelivered[v] += nd.dup[v];
            *_oooDelivered[v] += nd.ooo[v];
        }
        nd = NodeDelta{};
    }
}

void
Network::scheduleRetransmit(std::uint64_t id, MsgPtr msg,
                            Tick latency, unsigned attempt)
{
    _dropped.at(id).retxPending = true;
    const Tick backoff = RecoveryConfig::backoff(
        _recovery.retransmitBaseCycles, attempt);
    _retxBackoff.sample(backoff);
    eventQueue().schedule(
        now() + backoff,
        [this, id, latency, attempt, m = std::move(msg)]() mutable {
            const auto entry = _dropped.find(id);
            if (entry == _dropped.end())
                return; // entry already resolved
            ++_retransmits;
            WB_EVENT(recorder(), now(), EvKind::NetRetransmit,
                     EvUnit::VNet, int(m->vnet),
                     Addr(m->debugAddr()), routeArg(*m));
            // The retry shares the lossy fabric: consult the (one,
            // seeded) injector stream again, so replays stay
            // bit-identical. Only the drop/delay outcomes apply —
            // duplicating a retransmission is equivalent to
            // duplicating the original, which endpoint dedup
            // absorbs anyway.
            FaultDecision d;
            if (_faults)
                d = _faults->next();
            if (d.drop) {
                ++_faultDropped;
                if (attempt + 1 < _recovery.retransmitBudget) {
                    scheduleRetransmit(id, std::move(m), latency,
                                       attempt + 1);
                } else {
                    // Budget exhausted: surrender the entry to the
                    // leak check (classified verdict, never a
                    // silent hang).
                    entry->second.retxPending = false;
                }
                return;
            }
            if (d.extraDelay > 0)
                ++_faultDelayed;
            const Tick fired = now();
            const std::uint8_t copy = std::uint8_t(
                2 + (attempt < 253u ? attempt : 253u));
            const int dst = m->dst;
            inboxInsert(dst, InboxEntry{fired + latency + d.extraDelay,
                                        fired, m->seq, m->src, copy,
                                        id, std::move(m)});
        },
        EventPriority::Delivery);
}

void
Network::accountDelivery(const InboxEntry &e)
{
    const NetMsg &msg = *e.msg;
    WB_EVENT(recorder(), e.at, EvKind::NetDeliver, EvUnit::VNet,
             int(msg.vnet), Addr(msg.debugAddr()), routeArg(msg));

    // A landed retransmission recovers its dropped entry
    // (single-shard); any other arrival left the ledger with its
    // inbox entry.
    if (e.copy >= 2 && _dropped.erase(e.id))
        ++_recovered;

    // Delivery-order statistics (always on): duplicated deliveries
    // and per-channel sequence inversions, split by virtual network.
    // Accumulated into the destination node's delta — this runs on
    // the destination shard's thread.
    NodeDelta &nd = _deltas[std::size_t(msg.dst)];
    const auto v = std::size_t(msg.vnet);
    if (!_dedup[std::size_t(msg.dst)].accept(msg.src, msg.seq)) {
        ++nd.dup[v];
    } else if (msg.seq != 0) {
        const std::size_t slot =
            (std::size_t(msg.src) * std::size_t(_numNodes) +
             std::size_t(msg.dst)) *
                numVNets +
            v;
        std::uint64_t &max_seen = _maxDelivered[slot];
        if (msg.seq < max_seen)
            ++nd.ooo[v];
        else
            max_seen = msg.seq;
    }
}

void
Network::deliverNext(int node)
{
    std::vector<InboxEntry> &box = _inbox[std::size_t(node)];
    std::pop_heap(box.begin(), box.end(), ArrivesAfter{});
    InboxEntry e = std::move(box.back());
    box.pop_back();
    _nextArrival[std::size_t(node)] =
        box.empty() ? maxTick : box.front().at;
    accountDelivery(e);
    _handlers[std::size_t(node)](std::move(e.msg));
}

void
Network::scheduleDeliveries(int node, Tick t, EventQueue &eq)
{
    const Tick next = _nextArrival[std::size_t(node)];
    assert(next >= t && "missed a delivery tick");
    if (next != t)
        return;
    assert(_handlers[std::size_t(node)] &&
           "destination node has no handler");
    // Each event pops the heap top when it runs. An insert made
    // meanwhile lands after t (every latency is at least 1), so the
    // k-th event delivers the k-th arrival in canonical order, and an
    // arrival whose event has not run (a panic unwound its tick) is
    // still in the inbox, where the ledger counts it.
    for (std::size_t k = dueAt(_inbox[std::size_t(node)], 0, t); k > 0;
         --k) {
        auto deliver = [this, node] { deliverNext(node); };
        static_assert(InlineCallback::fitsInline<decltype(deliver)>,
                      "a delivery event must not allocate");
        eq.schedule(t, std::move(deliver), EventPriority::Delivery);
    }
}

void
Network::deliverTick(Tick t, EventQueue &eq)
{
    commitSends();
    for (int node = 0; node < _numNodes; ++node)
        scheduleDeliveries(node, t, eq);
}

Tick
Network::nextArrivalTick() const
{
    return *std::min_element(_nextArrival.begin(), _nextArrival.end());
}

Tick
Network::drain(EventQueue &eq, Tick limit)
{
    for (;;) {
        commitSends();
        const Tick t =
            std::min(eq.nextTick(), nextArrivalTick());
        if (t == maxTick || t > limit)
            break;
        for (int node = 0; node < _numNodes; ++node)
            scheduleDeliveries(node, t, eq);
        eq.runUntil(t);
    }
    return eq.now();
}

void
Network::serializeState(ByteWriter &w) const
{
    for (std::uint64_t last : _lastId)
        w.u64(last);
    const std::vector<InFlightMsg> ledger = undelivered();
    w.u64(ledger.size());
    for (const InFlightMsg &e : ledger) {
        w.u64(e.id);
        w.str(e.kind);
        w.i64(e.src);
        w.i64(e.dst);
        w.i64(e.vnet);
        w.u64(e.addr);
        w.u64(e.injectedAt);
        w.b(e.dropped);
        w.b(e.retxPending);
    }
    w.u64(_srcSeq.size());
    for (std::uint64_t s : _srcSeq)
        w.u64(s);
    w.u64(_maxDelivered.size());
    for (std::uint64_t s : _maxDelivered)
        w.u64(s);
    for (const DedupFilter &f : _dedup)
        f.serializeState(w);
    // Pending inbox arrivals, grouped by arrival tick, in canonical
    // order.
    std::vector<const InboxEntry *> sorted;
    for (const std::vector<InboxEntry> &box : _inbox) {
        sorted.clear();
        for (const InboxEntry &e : box)
            sorted.push_back(&e);
        std::sort(sorted.begin(), sorted.end(),
                  [](const InboxEntry *a, const InboxEntry *b) {
                      return ArrivesAfter{}(*b, *a);
                  });
        std::uint64_t ticks = 0;
        for (std::size_t i = 0; i < sorted.size(); ++i)
            ticks += i == 0 || sorted[i]->at != sorted[i - 1]->at;
        w.u64(ticks);
        for (std::size_t i = 0, end = 0; i < sorted.size(); i = end) {
            const Tick at = sorted[i]->at;
            while (end < sorted.size() && sorted[end]->at == at)
                ++end;
            w.u64(at);
            w.u64(end - i);
            for (std::size_t k = i; k < end; ++k) {
                w.u64(sorted[k]->snow);
                w.u64(sorted[k]->seq);
                w.i64(sorted[k]->src);
                w.u8(sorted[k]->copy);
                w.u64(sorted[k]->id);
            }
        }
    }
    serializeExtra(w);
}

} // namespace wb

/**
 * @file
 * On-chip interconnect interface.
 *
 * The interconnect carries coherence messages between nodes. Each
 * node hosts a core with its private caches and one LLC bank slice.
 * Three virtual networks (request / forward / response) prevent
 * protocol deadlock; messages within and across virtual networks are
 * *not* ordered end-to-end — the property the paper assumes
 * ("general unordered interconnection network").
 *
 * Delivery model (deterministic under sharding): send() runs on the
 * thread that owns the source node and only *buffers* cross-node
 * messages in the source's outbox. commitSends() — the serial
 * epoch-barrier phase — empties every outbox, orders the batch by
 * the canonical (send-tick, source, sequence) key, applies fault
 * decisions and route/contention modelling in that order, and places
 * arrivals into per-destination inboxes ordered by arrival tick. Each
 * shard then drains its own nodes' inboxes tick by tick via
 * scheduleDeliveries(). Because the canonical order is a pure
 * function of per-source program order, delivery outcomes are
 * independent of both the host-thread schedule and the shard count.
 * Node-internal transfers never cross a shard and bypass the
 * outboxes.
 *
 * The inboxes are the in-flight ledger: a message that is not
 * dropped stays in its destination's inbox until its delivery event
 * runs, so a leaked (never-delivered) message is detectable at end of
 * run and nameable in a crash report, a panic's unwinding included.
 * Dropped messages wait in an id-ordered side table. An optional
 * FaultInjector is consulted per message to apply seeded delay
 * spikes, duplication, reordering bursts, and drops (fault injection
 * and transport recovery require a single-shard run).
 */

#ifndef WB_NETWORK_NETWORK_HH
#define WB_NETWORK_NETWORK_HH

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "recovery/recovery.hh"
#include "sim/bytes.hh"
#include "sim/fault.hh"
#include "sim/sim_object.hh"
#include "sim/types.hh"

namespace wb
{

/** Virtual networks, lowest priority number first. */
enum class VNet : int
{
    Request = 0,  //!< GetS/GetX/Upgrade/GetU/Put*
    Forward = 1,  //!< Inv/Fwd*/Recall (directory -> cores)
    Response = 2, //!< Data/Ack/Nack/Unblock/UData/Hints
};

constexpr int numVNets = 3;

/** Base class of every message carried by the interconnect. */
struct NetMsg
{
    int src = -1;       //!< source node
    int dst = -1;       //!< destination node
    VNet vnet = VNet::Request;
    unsigned flits = 1; //!< 1 for control, 5 for data (Table 6)

    /** Per-source sequence number, stamped at injection (0 = never
     *  injected). Fault-duplicated copies and transport
     *  retransmissions share the original's seq, which is what lets
     *  endpoint sinks discard duplicated deliveries exactly. */
    std::uint64_t seq = 0;

    virtual ~NetMsg() = default;

    /** Human-readable message kind, for traces. */
    virtual const char *kind() const { return "msg"; }

    /** Address the message concerns (0 if not address-bearing);
     *  named by undelivered() and so by leak checks and crash
     *  reports. */
    virtual std::uint64_t debugAddr() const { return 0; }
};

/**
 * Shared ownership: a fault-duplicated message is referenced by two
 * inbox entries at once, and an endpoint queue may hold a message
 * whose duplicate is still in flight. Messages are logically owned
 * by exactly one component at a time. Built with make_shared in
 * makeCohMsg, so the control block shares the message's allocation,
 * and freed by whichever thread drops the last reference: there is
 * no pool, thread-local or process-global, behind it.
 */
using MsgPtr = std::shared_ptr<NetMsg>;

/**
 * Abstract interconnect. Concrete implementations compute delivery
 * latency (possibly with contention) during the serial commit phase;
 * arrivals are dispatched to the destination node's handler from its
 * owning shard's event queue.
 */
class Network : public SimObject
{
  public:
    using Handler = std::function<void(MsgPtr)>;

    /** Ledger record of a message that has not (yet) been
     *  delivered: read off its inbox entry, or for a dropped message
     *  kept in the dropped table. `dropped` entries are permanent —
     *  the injector ate the message — unless the recovery layer is
     *  armed: `retxPending` then marks a dropped forward/response
     *  the transport is still retransmitting. Ids are composite:
     *  (destination << 48) | per-destination count, so each shard
     *  allocates ids for its own nodes without coordination. */
    struct InFlightMsg
    {
        std::uint64_t id = 0;
        const char *kind = "msg";
        int src = -1;
        int dst = -1;
        int vnet = 0;
        std::uint64_t addr = 0;
        Tick injectedAt = 0;
        bool dropped = false;
        bool retxPending = false;
    };

    Network(std::string name, EventQueue *eq, StatRegistry *stats,
            int num_nodes);
    ~Network() override;

    int numNodes() const { return _numNodes; }

    /** Bind the delivery callback of node @p node. */
    void registerNode(int node, Handler handler);

    /**
     * Inject a message sent at tick @p snow; src/dst/vnet/flits must
     * be set. Runs on the thread that owns the source node.
     * Node-internal messages are placed directly into the
     * destination inbox; cross-node messages wait in the source's
     * outbox until the next commitSends().
     */
    void send(MsgPtr msg, Tick snow);

    /**
     * Serial commit phase (epoch barrier / single-threaded pump):
     * empty the per-source outboxes, process the batch in canonical
     * (send-tick, source, sequence) order — fault decision, route
     * and contention modelling, ledger recording — and insert each
     * arrival into the destination inbox. Also folds the per-node
     * delivery-statistic deltas into the registry counters. Must not
     * run concurrently with any shard phase.
     */
    void commitSends();

    /**
     * Shard phase: schedule in @p eq one Delivery-lane event per
     * arrival of node @p node due at tick @p t, if any. Each event
     * pops the inbox's next arrival when it runs, so the arrivals
     * are delivered in canonical order and stay in the inbox (the
     * ledger) until then. Call once per due tick, before draining
     * the queue at @p t, at latest at the node's nextArrival(): a
     * shard may skip ticks in which none of its nodes has an
     * arrival. Only the thread owning @p node may call this.
     */
    void scheduleDeliveries(int node, Tick t, EventQueue &eq);

    /** Tick of node @p node's next inbox arrival, maxTick if none.
     *  A dense per-node array, owned like the inboxes, so a shard
     *  finds its arrivals without touching an inbox. */
    Tick nextArrival(int node) const
    {
        return _nextArrival[std::size_t(node)];
    }

    /** Single-threaded per-tick drive for harnesses without a shard
     *  loop: commitSends() + scheduleDeliveries for every node. */
    void deliverTick(Tick t, EventQueue &eq);

    /**
     * Single-threaded convenience for tests/tools: alternate commit
     * and delivery phases against @p eq until the network and queue
     * are idle (or @p limit is reached). Returns the tick reached.
     */
    Tick drain(EventQueue &eq, Tick limit = maxTick);

    /** Earliest pending inbox arrival tick, maxTick if none. */
    Tick nextArrivalTick() const;

    /** Minimum cross-node delivery latency — the sharded run loop's
     *  conservative lookahead (epoch length bound). */
    virtual Tick lookahead() const = 0;

    /** Node-internal delivery latency. Must be >= 1: a zero-latency
     *  self-send would arrive in the past of its own tick. */
    virtual Tick localLatency() const = 0;

    /** Attach a fault oracle (nullptr = fault-free). */
    void setFaultInjector(FaultInjector *fi) { _faults = fi; }
    const FaultInjector *faultInjector() const { return _faults; }

    /** Arm the transport recovery layer (retransmission of dropped
     *  forward/response messages). */
    void setRecovery(const RecoveryConfig &rc);

    /**
     * Recovery accounting hook for the teardown reclassifier: a
     * dropped request-vnet entry whose transaction provably
     * completed through an endpoint re-issue is counted `recovered`
     * and retired from the ledger, keeping the drain invariant
     * (injected == delivered + recovered + leaked) exact.
     */
    void markRecovered(std::uint64_t id);

    /** Messages injected but not yet delivered. Excludes drops —
     *  except dropped messages a retransmission is still chasing,
     *  which the drain loop must keep waiting for. Serial phase
     *  only; O(nodes + messages in flight). */
    std::size_t inFlight() const;

    /** undelivered().size() without building the list. */
    std::size_t undeliveredCount() const;

    /** In-flight message-ledger gauge for live telemetry. */
    void registerMetrics(MetricsRegistry &metrics) override;

    /** Every undelivered ledger entry, dropped ones included,
     *  ordered by composite id (deterministic). */
    std::vector<InFlightMsg> undelivered() const;

    /** Total flit-hops injected so far (traffic metric). */
    std::uint64_t flitHops() const { return _flitHops.value(); }

    /** Total messages injected so far. */
    std::uint64_t messages() const { return _messages.value(); }

    /** Transport-level retransmissions of dropped messages. */
    std::uint64_t retransmits() const { return _retransmits.value(); }

    /** Dropped messages that were eventually delivered (or proven
     *  superseded by an endpoint re-issue). */
    std::uint64_t recovered() const { return _recovered.value(); }

    /** Duplicated deliveries observed on one virtual network. */
    std::uint64_t
    dupDelivered(int vnet) const
    {
        return _dupDelivered[std::size_t(vnet)]->value();
    }

    /** Out-of-order deliveries (per-source sequence inversions on
     *  one (src, dst, vnet) channel). */
    std::uint64_t
    oooDelivered(int vnet) const
    {
        return _oooDelivered[std::size_t(vnet)]->value();
    }

    /** Snapshot witness: the per-destination id counters, the
     *  ledger (undelivered(), ordered by id), per-source sequence
     *  stamps, per-channel delivery horizons, the duplicate-delivery
     *  windows, pending inbox arrivals, and any implementation state
     *  (serializeExtra). Serial phase only; the outboxes must be
     *  empty (committed). */
    void serializeState(ByteWriter &w) const;

  protected:
    /**
     * Commit-phase route modelling: absolute arrival tick of a
     * cross-node message sent at @p snow. May advance mutable model
     * state (link occupancy horizons, the jitter RNG); calls are
     * made in canonical batch order, which keeps that state
     * schedule-independent.
     */
    virtual Tick routeArrival(Tick snow, const NetMsg &msg) = 0;

    /** Route length in hops for traffic accounting. */
    virtual unsigned hopsOf(const NetMsg &msg) const = 0;

    /** Implementation-specific witness state appended by concrete
     *  networks (RNG stream, link occupancy horizons, ...). */
    virtual void serializeExtra(ByteWriter &) const {}

    int _numNodes;

  private:
    /** A buffered cross-node send awaiting the commit phase. */
    struct PendingSend
    {
        Tick snow = 0;
        MsgPtr msg;
    };

    /** One source's cross-node sends of the current epoch, in send
     *  order. Only the shard owning the source appends, and only
     *  commitSends() reads, after the epoch barrier, whose
     *  release/acquire pair orders every append before the read.
     *  Each outbox has its own cache line in _outboxes, so no two
     *  shards write one line there. */
    struct alignas(64) Outbox
    {
        std::vector<PendingSend> sends;
    };

    /** One pending arrival in a destination inbox. The canonical
     *  delivery order is (arrival tick, snow, src, seq, copy);
     *  `copy` disambiguates fault duplicates (1) and retransmission
     *  attempts (2 + attempt) from originals (0). An original or a
     *  duplicate is its own ledger record; a retransmission's record
     *  is its dropped-table entry. */
    struct InboxEntry
    {
        Tick at = 0;
        Tick snow = 0;
        std::uint64_t seq = 0;
        int src = -1;
        std::uint8_t copy = 0;
        std::uint64_t id = 0;
        MsgPtr msg;
    };

    /** The one inbox comparator: true when @p a is delivered after
     *  @p b. As a heap order it keeps the next delivery on top. */
    struct ArrivesAfter
    {
        bool
        operator()(const InboxEntry &a, const InboxEntry &b) const
        {
            return std::tie(a.at, a.snow, a.src, a.seq, a.copy) >
                   std::tie(b.at, b.snow, b.src, b.seq, b.copy);
        }
    };

    /** Delivery statistics accumulated on the destination shard's
     *  thread, folded into the shared counters by the commit phase
     *  in node order. */
    struct NodeDelta
    {
        std::uint64_t localMessages = 0;
        std::array<std::uint64_t, numVNets> dup{};
        std::array<std::uint64_t, numVNets> ooo{};
    };

    /** Issue the next ledger id of destination @p dst. */
    std::uint64_t
    newId(int dst)
    {
        return (std::uint64_t(std::uint16_t(dst)) << 48) |
               ++_lastId[std::size_t(dst)];
    }

    /** Inbox entries that are their own ledger records. */
    std::size_t inboxRecords() const;

    /** Insert an arrival into @p dst's inbox. */
    void inboxInsert(int dst, InboxEntry entry);

    /** Delivery event: pop node @p node's next arrival, account it
     *  and hand it to the node's handler. */
    void deliverNext(int node);

    /** Update the duplicate / out-of-order delivery statistics as
     *  @p e arrives, and retire the dropped entry a retransmission
     *  recovers (destination shard's thread). */
    void accountDelivery(const InboxEntry &e);

    /** Account traffic for a cross-node message travelling @p hops
     *  hops (commit phase — touches shared counters). */
    void
    accountTraffic(const NetMsg &msg, unsigned hops)
    {
        ++_messages;
        std::uint64_t fh = std::uint64_t(msg.flits) * hops;
        _flitHops += fh;
        *_vnetFlitHops[std::size_t(msg.vnet)] += fh;
    }

    /** Process one canonically-ordered batch element: route, then
     *  place(). Serial phase. */
    void commitOne(Tick snow, MsgPtr msg);

    /** Place a message sent at @p snow that takes @p latency ticks
     *  to arrive: fault draw, drop (and retransmit), delay,
     *  duplicate, ledger and inbox. Every arrival goes through here,
     *  node-internal or routed. */
    void place(Tick snow, MsgPtr msg, Tick latency);

    /** Schedule retransmission attempt @p attempt of a dropped
     *  message after its (bounded exponential) backoff. The dropped
     *  entry @p id stays in the table until a retransmission lands.
     *  Single-shard only (rides the primary event queue). */
    void scheduleRetransmit(std::uint64_t id, MsgPtr msg,
                            Tick latency, unsigned attempt);

    std::vector<Handler> _handlers;
    FaultInjector *_faults = nullptr;
    RecoveryConfig _recovery{};
    std::vector<Outbox> _outboxes;        //!< per source node
    std::vector<PendingSend> _batch;      //!< commitSends scratch
    /** Per destination node: a binary heap on ArrivesAfter. Owned by
     *  the node's shard during an epoch; written by the commit phase
     *  between epochs. */
    std::vector<std::vector<InboxEntry>> _inbox;
    std::vector<Tick> _nextArrival; //!< per node: its inbox's top
    std::vector<std::uint64_t> _lastId;   //!< per dst: last low id
    /** Dropped messages by id (fault runs, so single-shard only). */
    std::map<std::uint64_t, InFlightMsg> _dropped;
    std::vector<NodeDelta> _deltas;       //!< per destination node
    std::vector<std::uint64_t> _srcSeq;   //!< per-source stamps
    std::vector<DedupFilter> _dedup;      //!< per-dst dup tracking
    std::vector<std::uint64_t> _maxDelivered; //!< per-channel max seq
    Counter &_messages;
    Counter &_flitHops;
    Counter &_faultDropped;
    Counter &_faultDuplicated;
    Counter &_faultDelayed;
    Counter &_retransmits;
    Counter &_recovered;
    std::array<Counter *, numVNets> _dupDelivered;
    std::array<Counter *, numVNets> _oooDelivered;
    std::array<Counter *, numVNets> _vnetFlitHops;
    Histogram &_retxBackoff;
};

} // namespace wb

#endif // WB_NETWORK_NETWORK_HH

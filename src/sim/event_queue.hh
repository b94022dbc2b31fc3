/**
 * @file
 * A deterministic discrete-event queue.
 *
 * Events are arbitrary callbacks scheduled at a tick with a priority.
 * Two events at the same (tick, priority) execute in scheduling order,
 * which keeps whole-system simulations reproducible across runs.
 *
 * Implementation: a calendar queue. Near-future events (within
 * numBuckets ticks of now) live in per-tick buckets, one intrusive
 * FIFO lane per priority, giving O(1) schedule and O(1) extract-min
 * on the hot path; far-future events wait in a small binary heap and
 * migrate into the calendar as time advances. Event nodes come from
 * an internal slab pool, so steady-state scheduling performs no
 * global allocation. The observable ordering contract — (tick,
 * priority, scheduling order) — is identical to the std::priority_
 * queue implementation this replaced, and is pinned by
 * tests/test_event_queue.cc.
 */

#ifndef WB_SIM_EVENT_QUEUE_HH
#define WB_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/bytes.hh"
#include "sim/callback.hh"
#include "sim/types.hh"

namespace wb
{

/**
 * Relative ordering of events that fire on the same tick. Lower values
 * run first.
 */
enum class EventPriority : int
{
    /** Message delivery into component input queues. */
    Delivery = 0,
    /** Default priority for component callbacks. */
    Default = 10,
};

/**
 * Deterministic discrete-event queue. The queue is not thread safe;
 * the whole simulator is single threaded by design.
 */
class EventQueue
{
  public:
    /** Inline-storage callable: the closure lives inside the
     *  pool-allocated event node, not behind a heap pointer. */
    using Callback = InlineCallback;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule @p cb to run at absolute tick @p when.
     *
     * Scheduling in the past (when < now()) is a simulator bug and
     * raises a classified panic — silently accepting it would
     * corrupt the queue's ordering contract in release builds.
     */
    void schedule(Tick when, Callback cb,
                  EventPriority prio = EventPriority::Default);

    /**
     * Schedule @p cb to run @p delta ticks from now.
     *
     * A delta large enough to wrap the Tick space is its own bug
     * class — without the check it would alias to a (bogus)
     * past-tick schedule and be misreported. Raises a distinct
     * classified panic instead.
     */
    void scheduleIn(Tick delta, Callback cb,
                    EventPriority prio = EventPriority::Default);

    /** @return true if no events remain. */
    bool empty() const { return _size == 0; }

    /** Number of pending events. */
    std::size_t size() const { return _size; }

    /** Tick of the next pending event, or maxTick if none is due
     *  by @p limit. */
    Tick nextTick(Tick limit = maxTick) const;

    /**
     * Execute every event scheduled at ticks <= @p limit, advancing
     * time as events fire. Afterwards now() == max(now, limit).
     *
     * Events may schedule further events; newly scheduled events
     * within the window are also executed.
     */
    void runUntil(Tick limit);

    /** Execute exactly the events of the current tick (now()). */
    void runCurrentTick() { runUntil(_now); }

    /**
     * Run until the queue drains or @p limit is reached.
     * @return the tick reached.
     */
    Tick runAll(Tick limit = maxTick);

    /** Total number of events executed since construction. */
    std::uint64_t executed() const { return _executed; }

    /**
     * Snapshot witness of the calendar's observable shape: clock,
     * tie-breaker counter, executed count, and every pending event
     * as a (when, lane, order) triple sorted by scheduling order.
     * Callback closures are deliberately NOT serialised — they hold
     * captured component pointers and cannot be; restore re-creates
     * them by deterministic replay and this witness proves the
     * replayed calendar is byte-identical (docs/CHECKPOINT.md).
     */
    void serializeState(ByteWriter &w) const;

  private:
    /** Calendar width: one bucket per tick, power of two. Events
     *  further out than this wait in the overflow heap. */
    static constexpr std::size_t numBuckets = 256;
    static constexpr Tick bucketMask = Tick(numBuckets - 1);
    static constexpr int numLanes = 2; //!< one per EventPriority
    static constexpr std::size_t slabSize = 256;

    /** Pool-allocated intrusive event node. */
    struct Event
    {
        Callback cb;
        Tick when = 0;
        std::uint64_t order = 0; //!< tie breaker: scheduling order
        Event *next = nullptr;   //!< lane FIFO / freelist link
        std::uint8_t lane = 0;
    };

    /** One tick's events: a FIFO lane per priority. */
    struct Bucket
    {
        std::array<Event *, numLanes> head{};
        std::array<Event *, numLanes> tail{};

        bool
        empty() const
        {
            return !head[0] && !head[1];
        }
    };

    static std::uint8_t
    laneOf(EventPriority prio)
    {
        return prio == EventPriority::Delivery ? 0 : 1;
    }

    Event *allocEvent();
    void freeEvent(Event *e);
    void pushBucket(Event *e);
    void pushOverflow(Event *e);
    /** Pull overflow events that now fall inside the calendar
     *  window; must run every time _now advances. */
    void migrateOverflow();
    void advanceTo(Tick t);
    /** Fire every event of the current tick, honouring priority
     *  order even for events scheduled mid-drain. */
    void drainCurrentBucket();
    /** Earliest pending tick <= @p limit, or maxTick. */
    Tick nextEventTick(Tick limit) const;

    std::array<Bucket, numBuckets> _buckets{};
    std::vector<Event *> _overflow; //!< min-heap by (when, order)
    std::size_t _numBucketed = 0;

    std::vector<std::unique_ptr<Event[]>> _slabs;
    Event *_freeList = nullptr;

    std::size_t _size = 0;
    Tick _now = 0;
    std::uint64_t _nextOrder = 0;
    std::uint64_t _executed = 0;
};

} // namespace wb

#endif // WB_SIM_EVENT_QUEUE_HH

#include "sim/event_queue.hh"

#include <algorithm>
#include <utility>

#include "sim/log.hh"

namespace wb
{

namespace
{

/** Overflow heap order: earliest (when, order) at the front. The
 *  lane is not part of the key — overflow events are re-separated
 *  into priority lanes when they migrate into the calendar, and
 *  within a lane the order stamp alone fixes the FIFO position. */
struct OverflowLater
{
    bool
    operator()(const auto *a, const auto *b) const
    {
        if (a->when != b->when)
            return a->when > b->when;
        return a->order > b->order;
    }
};

} // namespace

EventQueue::Event *
EventQueue::allocEvent()
{
    if (!_freeList) {
        _slabs.push_back(std::make_unique<Event[]>(slabSize));
        Event *slab = _slabs.back().get();
        for (std::size_t i = 0; i < slabSize; ++i) {
            slab[i].next = _freeList;
            _freeList = &slab[i];
        }
    }
    Event *e = _freeList;
    _freeList = e->next;
    e->next = nullptr;
    return e;
}

void
EventQueue::freeEvent(Event *e)
{
    e->cb = nullptr;
    e->next = _freeList;
    _freeList = e;
}

void
EventQueue::pushBucket(Event *e)
{
    Bucket &b = _buckets[e->when & bucketMask];
    Event *&tail = b.tail[e->lane];
    if (tail)
        tail->next = e;
    else
        b.head[e->lane] = e;
    tail = e;
    ++_numBucketed;
}

void
EventQueue::pushOverflow(Event *e)
{
    _overflow.push_back(e);
    std::push_heap(_overflow.begin(), _overflow.end(),
                   OverflowLater{});
}

void
EventQueue::migrateOverflow()
{
    while (!_overflow.empty() &&
           _overflow.front()->when < _now + Tick(numBuckets)) {
        std::pop_heap(_overflow.begin(), _overflow.end(),
                      OverflowLater{});
        Event *e = _overflow.back();
        _overflow.pop_back();
        // Heap pops come out in (when, order) order and every
        // overflow stamp predates any later direct insert, so each
        // lane's FIFO order is preserved across the migration.
        pushBucket(e);
    }
}

void
EventQueue::advanceTo(Tick t)
{
    _now = t;
    migrateOverflow();
}

void
EventQueue::schedule(Tick when, Callback cb, EventPriority prio)
{
    if (when < _now)
        panic("EventQueue: schedule at tick %llu in the past "
              "(now %llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(_now));
    Event *e = allocEvent();
    e->cb = std::move(cb);
    e->when = when;
    e->order = _nextOrder++;
    e->lane = laneOf(prio);
    if (when < _now + Tick(numBuckets))
        pushBucket(e);
    else
        pushOverflow(e);
    ++_size;
}

void
EventQueue::scheduleIn(Tick delta, Callback cb, EventPriority prio)
{
    if (delta > maxTick - _now)
        panic("EventQueue: scheduleIn overflow: delta %llu from tick "
              "%llu wraps the tick space",
              static_cast<unsigned long long>(delta),
              static_cast<unsigned long long>(_now));
    schedule(_now + delta, std::move(cb), prio);
}

Tick
EventQueue::nextEventTick(Tick limit) const
{
    if (limit < _now)
        return maxTick; // nothing pending is in the past
    if (_numBucketed > 0) {
        // Every bucketed event lies in [_now, _now + numBuckets),
        // so one tick owns each bucket and a forward scan finds the
        // earliest. Beyond `limit` nothing qualifies.
        const Tick span = limit - _now;
        const Tick steps =
            std::min<Tick>(span, Tick(numBuckets - 1));
        for (Tick i = 0; i <= steps; ++i)
            if (!_buckets[(_now + i) & bucketMask].empty())
                return _now + i;
        return maxTick; // bucketed events exist, but all > limit
    }
    if (!_overflow.empty() && _overflow.front()->when <= limit)
        return _overflow.front()->when;
    return maxTick;
}

Tick
EventQueue::nextTick(Tick limit) const
{
    return nextEventTick(limit);
}

void
EventQueue::drainCurrentBucket()
{
    Bucket &b = _buckets[_now & bucketMask];
    // Re-scan from the highest-priority lane after every event:
    // a callback may schedule a same-tick event in a *better* lane,
    // and the ordering contract says it still runs before the
    // remaining lower-priority events.
    for (;;) {
        int lane = 0;
        while (lane < numLanes && !b.head[lane])
            ++lane;
        if (lane == numLanes)
            return;
        Event *e = b.head[lane];
        b.head[lane] = e->next;
        if (!b.head[lane])
            b.tail[lane] = nullptr;
        --_numBucketed;
        --_size;
        ++_executed;
        Callback cb = std::move(e->cb);
        freeEvent(e); // before the call: cb may reuse the node
        cb();
    }
}

void
EventQueue::runUntil(Tick limit)
{
    for (;;) {
        const Tick next = nextEventTick(limit);
        if (next == maxTick)
            break;
        advanceTo(next);
        drainCurrentBucket();
    }
    if (limit != maxTick && limit > _now)
        advanceTo(limit);
}

Tick
EventQueue::runAll(Tick limit)
{
    for (;;) {
        const Tick next = nextEventTick(limit);
        if (next == maxTick)
            break;
        advanceTo(next);
        drainCurrentBucket();
    }
    return _now;
}

void
EventQueue::serializeState(ByteWriter &w) const
{
    w.u64(_now);
    w.u64(_nextOrder);
    w.u64(_executed);
    w.u64(_size);

    struct Pending
    {
        Tick when;
        std::uint64_t order;
        std::uint8_t lane;
    };
    std::vector<Pending> pending;
    pending.reserve(_size);
    for (const Bucket &b : _buckets)
        for (int lane = 0; lane < numLanes; ++lane)
            for (const Event *e = b.head[std::size_t(lane)]; e;
                 e = e->next)
                pending.push_back({e->when, e->order, e->lane});
    for (const Event *e : _overflow)
        pending.push_back({e->when, e->order, e->lane});

    // Scheduling order is globally unique, so sorting by it yields
    // one canonical enumeration regardless of which bucket or heap
    // slot an event currently occupies.
    std::sort(pending.begin(), pending.end(),
              [](const Pending &a, const Pending &b) {
                  return a.order < b.order;
              });
    for (const Pending &p : pending) {
        w.u64(p.when);
        w.u64(p.order);
        w.u8(p.lane);
    }
}

} // namespace wb

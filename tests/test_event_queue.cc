/** @file Unit tests for the discrete-event kernel. */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "sim/event_queue.hh"

namespace wb
{

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] { order.push_back(2); });
    eq.schedule(5, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(3); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 20u);
}

TEST(EventQueue, SameTickUsesPriorityThenFifo)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(3); },
                EventPriority::Default);
    eq.schedule(5, [&] { order.push_back(1); },
                EventPriority::Delivery);
    eq.schedule(5, [&] { order.push_back(2); },
                EventPriority::Delivery);
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(5, [&] { ++fired; });
    eq.schedule(15, [&] { ++fired; });
    eq.runUntil(10);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 10u);
    eq.runUntil(20);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int count = 0;
    std::function<void()> chain = [&]() {
        if (++count < 5)
            eq.scheduleIn(1, chain);
    };
    eq.schedule(0, chain);
    eq.runAll();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.now(), 4u);
}

TEST(EventQueue, NextTickReportsHead)
{
    EventQueue eq;
    EXPECT_EQ(eq.nextTick(), maxTick);
    eq.schedule(42, [] {});
    EXPECT_EQ(eq.nextTick(), 42u);
}

TEST(EventQueue, ExecutedCounter)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.schedule(Tick(i), [] {});
    eq.runAll();
    EXPECT_EQ(eq.executed(), 7u);
}

// The calendar is 256 buckets wide; ticks 256 apart alias the same
// bucket, and ticks further out than the window wait in the
// overflow heap. None of that may leak into the observable order.

TEST(EventQueue, BucketAliasingRunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    // Same bucket (tick % 256 == 3), scheduled newest-first.
    eq.schedule(3 + 512, [&] { order.push_back(3); });
    eq.schedule(3 + 256, [&] { order.push_back(2); });
    eq.schedule(3, [&] { order.push_back(1); });
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 515u);
}

TEST(EventQueue, FifoSurvivesOverflowMigration)
{
    EventQueue eq;
    std::vector<int> order;
    // Tick 1000 starts far outside the calendar window, so these
    // first wait in the overflow heap, migrate, and must still run
    // priority-first then in scheduling order.
    eq.schedule(1000, [&] { order.push_back(3); },
                EventPriority::Default);
    eq.schedule(1000, [&] { order.push_back(1); },
                EventPriority::Delivery);
    eq.schedule(1000, [&] { order.push_back(2); },
                EventPriority::Delivery);
    // Draw time close enough that tick 1000 is inside the window,
    // then append to the same tick directly: FIFO position is fixed
    // by scheduling order, not by which container held the event.
    eq.runUntil(900);
    eq.schedule(1000, [&] { order.push_back(4); },
                EventPriority::Default);
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, MidDrainHigherPriorityRunsBeforeLowerLanes)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5,
                [&] {
                    order.push_back(1);
                    // Scheduled mid-drain at a *better* priority
                    // than the Default event already queued for
                    // this tick: it must still run first.
                    eq.schedule(5, [&] { order.push_back(2); },
                                EventPriority::Delivery);
                },
                EventPriority::Default);
    eq.schedule(5, [&] { order.push_back(3); },
                EventPriority::Default);
    eq.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.runAll();
    ASSERT_EQ(eq.now(), 10u);
    // A panic, not silent acceptance: a past-tick event would
    // corrupt the ordering contract invisibly in release builds.
    EXPECT_THROW(eq.schedule(9, [] {}), std::logic_error);
    // The present tick is still legal.
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.runCurrentTick();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, ScheduleInOverflowPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.runAll();
    ASSERT_EQ(eq.now(), 100u);
    // now + delta would wrap Tick: before this guard the sum
    // aliased to a small tick and tripped the past-tick panic with
    // a misleading message (or, one tick earlier, silently
    // scheduled at the wrong time). The overflow must be its own
    // classified panic.
    EXPECT_THROW(eq.scheduleIn(maxTick, [] {}), std::logic_error);
    EXPECT_THROW(eq.scheduleIn(maxTick - 99, [] {}),
                 std::logic_error);
    // The largest representable delta is still legal.
    eq.scheduleIn(maxTick - 100, [] {});
    EXPECT_EQ(eq.nextTick(), maxTick);
}

TEST(EventQueue, StressMatchesReferenceOrder)
{
    // Pseudo-random (when, priority) stream spanning several
    // calendar wraparounds and the overflow heap. The observable
    // order must equal a stable sort by (when, priority): stability
    // is exactly the FIFO-within-(tick, priority) contract.
    EventQueue eq;
    std::uint64_t lcg = 12345;
    auto next = [&lcg] {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return lcg >> 33;
    };

    // (when, lane, id) in scheduling order.
    std::vector<std::tuple<Tick, int, int>> ref;
    std::vector<int> fired;
    constexpr EventPriority prios[2] = {EventPriority::Delivery,
                                        EventPriority::Default};
    for (int id = 0; id < 2000; ++id) {
        const Tick when = Tick(next() % 1500); // window is 256
        const int lane = int(next() % 2);
        ref.emplace_back(when, lane, id);
        eq.schedule(when, [&fired, id] { fired.push_back(id); },
                    prios[lane]);
    }
    eq.runAll();

    std::stable_sort(ref.begin(), ref.end(),
                     [](const auto &a, const auto &b) {
                         if (std::get<0>(a) != std::get<0>(b))
                             return std::get<0>(a) < std::get<0>(b);
                         return std::get<1>(a) < std::get<1>(b);
                     });
    ASSERT_EQ(fired.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_EQ(fired[i], std::get<2>(ref[i])) << "position " << i;
}

} // namespace wb

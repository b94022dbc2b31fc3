/**
 * @file
 * Observability-layer tests: flight-recorder ring semantics, latency
 * breakdown telescoping, timeline sampler period math, Perfetto
 * export determinism, crash-report integration, and histogram
 * percentiles.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "obs/flight_recorder.hh"
#include "obs/metrics.hh"
#include "obs/perfetto.hh"
#include "obs/timeline.hh"
#include "sim/bytes.hh"
#include "sim/stats.hh"
#include "system/crash_report.hh"
#include "system/system.hh"
#include "workload/litmus.hh"

namespace wb
{

namespace
{

/** 4-core litmus config with observability enabled. */
SystemConfig
obsConfig(std::size_t ring, Tick period)
{
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.mesh.width = 2;
    cfg.mesh.height = 2;
    cfg.setMode(CommitMode::OooWB);
    cfg.obs.flightRecorder = ring;
    cfg.obs.timelinePeriod = period;
    return cfg;
}

} // namespace

// ---------------------------------------------------------------
// FlightRecorder ring semantics
// ---------------------------------------------------------------

TEST(FlightRecorder, RingWrapsAndKeepsTheNewestEvents)
{
    StatRegistry stats;
    FlightRecorder fr(&stats, 8);
    EXPECT_EQ(fr.capacity(), 8u);
    EXPECT_EQ(fr.size(), 0u);
    EXPECT_TRUE(fr.tail().empty());

    for (Tick t = 1; t <= 20; ++t)
        fr.record(t, EvKind::Commit, EvUnit::Core, 0, 0, t);

    EXPECT_EQ(fr.recorded(), 20u);
    EXPECT_EQ(fr.size(), 8u);
    const auto all = fr.tail();
    ASSERT_EQ(all.size(), 8u);
    // The newest 8 of 20 events, oldest first: ticks 13..20.
    for (std::size_t i = 0; i < all.size(); ++i)
        EXPECT_EQ(all[i].tick, Tick(13 + i));
    EXPECT_EQ(stats.counterValue("obs.eventsOverwritten"), 12u);

    // A bounded tail takes from the newest end.
    const auto last3 = fr.tail(3);
    ASSERT_EQ(last3.size(), 3u);
    EXPECT_EQ(last3.front().tick, Tick(18));
    EXPECT_EQ(last3.back().tick, Tick(20));
}

TEST(FlightRecorder, OrderingSurvivesWraparound)
{
    StatRegistry stats;
    FlightRecorder fr(&stats, 16);
    // Interleave units and kinds; ticks strictly increase.
    for (Tick t = 1; t <= 100; ++t)
        fr.record(t, t % 2 ? EvKind::NetEnqueue : EvKind::NetDeliver,
                  EvUnit::VNet, int(t % 3), Addr(t * 64));
    const auto tail = fr.tail();
    ASSERT_EQ(tail.size(), 16u);
    for (std::size_t i = 1; i < tail.size(); ++i)
        EXPECT_LT(tail[i - 1].tick, tail[i].tick);
    EXPECT_EQ(tail.back().tick, Tick(100));
}

// ---------------------------------------------------------------
// Latency breakdown telescoping
// ---------------------------------------------------------------

TEST(FlightRecorder, BreakdownSegmentsSumToEndToEndLatency)
{
    StatRegistry stats;
    FlightRecorder fr(&stats, 64);

    // Full four-phase transaction.
    fr.txnBegin(100, 0, 0x1000, 'R');
    fr.txnDirSeen(110, 2, 0, 0x1000);
    fr.txnData(130, 0, 0x1000);
    fr.txnEnd(145, 0, 0x1000);

    // Missing dirSeen (e.g. stamp lost to a dropped request): the
    // segment collapses to zero, never goes negative.
    fr.txnBegin(200, 1, 0x2000, 'W');
    fr.txnData(230, 1, 0x2000);
    fr.txnEnd(260, 1, 0x2000);

    // GetU bypass on the same (core, line) as an open write must not
    // clobber the write's stamps.
    fr.txnBegin(300, 2, 0x3000, 'W');
    fr.txnBegin(305, 2, 0x3000, 'U', true);
    fr.txnEnd(315, 2, 0x3000, true);
    fr.txnData(320, 2, 0x3000);
    fr.txnEnd(330, 2, 0x3000);

    EXPECT_EQ(fr.txnLatency().samples(), 4u);
    EXPECT_EQ(fr.reqToDir().samples(), 4u);
    // Telescoping invariant: per construction the three segment sums
    // equal the end-to-end sum exactly.
    EXPECT_EQ(fr.reqToDir().sum() + fr.dirToData().sum() +
                  fr.dataToEnd().sum(),
              fr.txnLatency().sum());
    EXPECT_EQ(fr.txnLatency().sum(), 45u + 60u + 10u + 30u);
}

TEST(FlightRecorder, BreakdownTelescopesAcrossARealRun)
{
    Workload wl = makeLitmus(LitmusKind::Table1, 200);
    System sys(obsConfig(1 << 14, 0), wl);
    SimResults r = sys.run();
    ASSERT_TRUE(r.completed);
    const FlightRecorder *fr = sys.flightRecorder();
    ASSERT_NE(fr, nullptr);
    EXPECT_GT(fr->txnLatency().samples(), 0u);
    EXPECT_EQ(fr->reqToDir().sum() + fr->dirToData().sum() +
                  fr->dataToEnd().sum(),
              fr->txnLatency().sum());
    // The histograms live in the System's registry under obs.*.
    EXPECT_NE(sys.stats().find("obs.txnLatency"), nullptr);
    EXPECT_NE(sys.stats().find("obs.lockdownHeld"), nullptr);
}

TEST(FlightRecorder, AbortDropsTheOpenTransaction)
{
    StatRegistry stats;
    FlightRecorder fr(&stats, 8);
    fr.txnBegin(10, 0, 0x40, 'R');
    fr.txnAbort(20, 0, 0x40);
    fr.txnEnd(30, 0, 0x40); // no open txn left: event only
    EXPECT_EQ(fr.txnLatency().samples(), 0u);
    EXPECT_EQ(fr.tail().back().kind, EvKind::TxnEnd);
}

// ---------------------------------------------------------------
// Timeline sampler
// ---------------------------------------------------------------

TEST(Timeline, PeriodMathAndRowCount)
{
    const MetricsRegistry none(nullptr);
    TimelineSampler tl(none, 100);
    EXPECT_TRUE(tl.due(100));
    EXPECT_TRUE(tl.due(200));
    EXPECT_FALSE(tl.due(1));
    EXPECT_FALSE(tl.due(150));

    Workload wl = makeLitmus(LitmusKind::Table1, 50);
    System sys(obsConfig(0, 100), wl);
    ASSERT_TRUE(sys.runToCycle(1000)); // paused, still running
    ASSERT_NE(sys.timeline(), nullptr);
    // Cycles 100, 200, ..., 1000: exactly ten samples.
    EXPECT_EQ(sys.timeline()->samples().size(), 10u);
    EXPECT_EQ(sys.timeline()->samples().front().cycle, Tick(100));
    EXPECT_EQ(sys.timeline()->samples().back().cycle, Tick(1000));
}

TEST(Timeline, CsvAndJsonCarryEveryGaugeColumn)
{
    Workload wl = makeLitmus(LitmusKind::Table1, 100);
    System sys(obsConfig(0, 64), wl);
    SimResults r = sys.run();
    ASSERT_TRUE(r.completed);
    const TimelineSampler *tl = sys.timeline();
    ASSERT_NE(tl, nullptr);
    ASSERT_FALSE(tl->samples().empty());

    std::ostringstream csv;
    tl->writeCsv(csv);
    const std::string c = csv.str();
    EXPECT_EQ(c.compare(0, 5, "cycle"), 0);
    EXPECT_NE(c.find("lockdowns"), std::string::npos);
    EXPECT_NE(c.find("vnetRespFlits"), std::string::npos);
    // Header plus one line per sample.
    EXPECT_EQ(std::size_t(std::count(c.begin(), c.end(), '\n')),
              tl->samples().size() + 1);

    std::ostringstream json;
    tl->writeJson(json);
    const std::string j = json.str();
    EXPECT_NE(j.find("\"period\":64"), std::string::npos);
    EXPECT_NE(j.find("\"vnetFlitHops\":["), std::string::npos);
    EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
              std::count(j.begin(), j.end(), '}'));
    EXPECT_EQ(std::count(j.begin(), j.end(), '['),
              std::count(j.begin(), j.end(), ']'));
}

TEST(Timeline, ColumnsSumTheRegistryGauges)
{
    Workload wl = makeLitmus(LitmusKind::Table1, 100);
    System sys(obsConfig(0, 64), wl);
    // The timeline builds the registry it reads, without a stream.
    ASSERT_NE(sys.metrics(), nullptr);
    EXPECT_EQ(sys.metricsStream(), nullptr);
    ASSERT_TRUE(sys.runToCycle(640)); // paused, still running
    TimelineSampler tl(*sys.metrics(), 1);
    tl.sample(sys.cycle());

    // Oracle: the same gauges read from the components by hand.
    std::array<std::uint64_t, timelineColumns.size()> want{};
    for (int i = 0; i < sys.numCores(); ++i) {
        const auto ps = sys.core(i).pipelineSnapshot();
        want[0] += ps.rob;
        want[1] += ps.iq;
        want[2] += ps.lq;
        want[3] += ps.sq;
        want[4] += ps.sb;
        want[5] += ps.locksHeld;
        want[6] += sys.l1(i).pendingMshrs();
        want[7] += sys.l1(i).writebackBufferUse();
    }
    want[8] = sys.network().inFlight();
    want[9] = sys.stats().counterValue("net.flitHopsReq");
    want[10] = sys.stats().counterValue("net.flitHopsFwd");
    want[11] = sys.stats().counterValue("net.flitHopsResp");
    EXPECT_GT(want[0], 0u);
    EXPECT_GT(want[11], 0u);
    EXPECT_EQ(tl.samples().front().values, want);
}

// Byte pins, computed before the timeline became a view of the
// metrics registry: every export of the table1 run below, and the
// metrics stream of a fixed run.
TEST(Timeline, ExportBytesArePinned)
{
    Workload wl = makeLitmus(LitmusKind::Table1, 100);
    System sys(obsConfig(1 << 12, 64), wl);
    ASSERT_TRUE(sys.run().completed);
    std::ostringstream csv, json, trace;
    sys.timeline()->writeCsv(csv);
    sys.timeline()->writeJson(json);
    writePerfettoTrace(trace, *sys.flightRecorder(), 4, 4,
                       sys.timeline());
    EXPECT_EQ(csv.str().size(), 10077u);
    EXPECT_EQ(fnv1a64(csv.str()), 0x030caf6903ecf6f5ULL);
    EXPECT_EQ(json.str().size(), 40269u);
    EXPECT_EQ(fnv1a64(json.str()), 0x5d0f4831612395bfULL);
    EXPECT_EQ(trace.str().size(), 302187u);
    EXPECT_EQ(fnv1a64(trace.str()), 0x20d0cc96cb84b980ULL);
}

// ---------------------------------------------------------------
// Perfetto export
// ---------------------------------------------------------------

TEST(Perfetto, TraceIsStructurallyValidJson)
{
    Workload wl = makeLitmus(LitmusKind::Table1, 100);
    System sys(obsConfig(1 << 14, 0), wl);
    SimResults r = sys.run();
    ASSERT_TRUE(r.completed);

    std::ostringstream os;
    writePerfettoTrace(os, *sys.flightRecorder(), 4, 4);
    const std::string t = os.str();
    EXPECT_EQ(t.compare(0, 16, "{\"traceEvents\":["), 0);
    EXPECT_NE(t.find("\"displayTimeUnit\":\"ms\""),
              std::string::npos);
    EXPECT_NE(t.find("\"process_name\""), std::string::npos);
    EXPECT_NE(t.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_EQ(std::count(t.begin(), t.end(), '{'),
              std::count(t.begin(), t.end(), '}'));
    EXPECT_EQ(std::count(t.begin(), t.end(), '['),
              std::count(t.begin(), t.end(), ']'));
}

TEST(Perfetto, ReplaysAreBitIdentical)
{
    auto render = []() {
        Workload wl = makeLitmus(LitmusKind::Table1, 150);
        System sys(obsConfig(1 << 14, 0), wl);
        SimResults r = sys.run();
        EXPECT_TRUE(r.completed);
        std::ostringstream os;
        writePerfettoTrace(os, *sys.flightRecorder(), 4, 4);
        return os.str();
    };
    const std::string a = render();
    const std::string b = render();
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------
// Crash-report integration
// ---------------------------------------------------------------

TEST(CrashReport, CarriesTheFlightRecorderTail)
{
    // Drop the first coherence message: the per-transaction watchdog
    // escalates to a deadlock verdict and the crash report must end
    // with the recorder's black-box tail.
    Workload wl = makeLitmus(LitmusKind::Table1, 300);
    SystemConfig cfg = obsConfig(4096, 0);
    cfg.txnWarnCycles = 5'000;
    cfg.txnDeadlockCycles = 15'000;
    cfg.watchdogPollCycles = 256;
    cfg.maxCycles = 2'000'000;
    std::string err;
    ASSERT_TRUE(parseFaultSpec("seed=1,drop=1.0:1", cfg.faults, err))
        << err;
    System sys(cfg, wl);
    const ClassifiedRun cr = runClassified(sys);
    ASSERT_EQ(cr.outcome, RunOutcome::Deadlock);

    std::ostringstream os;
    writeCrashReport(os, sys, cr.verdict, cr.detail);
    const std::string j = os.str();
    EXPECT_NE(j.find("\"flightRecorder\":{"), std::string::npos);
    EXPECT_NE(j.find("\"tail\":["), std::string::npos);
    // The surviving cores' final retirements are the last activity
    // before the machine wedges, so they must be in the tail.
    EXPECT_NE(j.find("\"kind\":\"commit\""), std::string::npos);
    EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
              std::count(j.begin(), j.end(), '}'));
}

TEST(CrashReport, OmitsRecorderWhenDisabled)
{
    Workload wl = makeLitmus(LitmusKind::Table1, 20);
    SystemConfig cfg = obsConfig(0, 0);
    System sys(cfg, wl);
    sys.run();
    std::ostringstream os;
    writeCrashReport(os, sys, "deadlock", "test");
    EXPECT_EQ(os.str().find("\"flightRecorder\""),
              std::string::npos);
}

// ---------------------------------------------------------------
// Histogram percentiles (stats satellite)
// ---------------------------------------------------------------

TEST(HistogramPercentiles, EmptyHistogramIsAllZero)
{
    Histogram h("t");
    EXPECT_EQ(h.minValue(), 0u);
    EXPECT_EQ(h.percentile(50), 0u);
    EXPECT_EQ(h.p99(), 0u);
}

TEST(HistogramPercentiles, BucketUpperBoundsClampedToMax)
{
    Histogram h("t");
    for (int i = 0; i < 99; ++i)
        h.sample(10); // bucket [8,16) -> upper bound 15
    h.sample(1000);   // bucket [512,1024) -> clamped to max
    EXPECT_EQ(h.p50(), 15u);
    EXPECT_EQ(h.p95(), 15u);
    EXPECT_EQ(h.percentile(100), 1000u);
    EXPECT_EQ(h.percentile(0), 10u);
    EXPECT_EQ(h.minValue(), 10u);

    Histogram z("z");
    z.sample(0);
    z.sample(0);
    EXPECT_EQ(z.p50(), 0u);
    EXPECT_EQ(z.maxValue(), 0u);

    // print() now carries the percentile summary.
    std::ostringstream os;
    h.print(os);
    EXPECT_NE(os.str().find("p95="), std::string::npos);
}

TEST(HistogramPercentiles, SingleSampleIsEveryPercentile)
{
    Histogram h("t");
    h.sample(37); // bucket [32,64): upper bound clamps to max=37
    EXPECT_EQ(h.percentile(0), 37u);
    EXPECT_EQ(h.p50(), 37u);
    EXPECT_EQ(h.p99(), 37u);
    EXPECT_EQ(h.percentile(100), 37u);
    EXPECT_EQ(h.minValue(), 37u);
    EXPECT_EQ(h.maxValue(), 37u);
}

TEST(HistogramPercentiles, OutOfRangePercentilesClampToEndpoints)
{
    Histogram h("t");
    h.sample(4);
    h.sample(400);
    EXPECT_EQ(h.percentile(-5), 4u);
    EXPECT_EQ(h.percentile(250), 400u);
}

TEST(HistogramPercentiles, HugeSamplesSaturateIntoTheLastBucket)
{
    // With 4 buckets every value >= 8 saturates into the final
    // bucket, whose inclusive upper bound is 2^3 - 1 = 7: counts
    // are never lost (samples/sum/max stay exact) but percentiles
    // read from a saturated bucket report the bucket bound, so
    // they under-report. min/max and p0 remain exact.
    Histogram h("t", 4);
    h.sample(1);
    h.sample(std::uint64_t(1) << 40);
    h.sample(std::uint64_t(1) << 41);
    EXPECT_EQ(h.samples(), 3u);
    EXPECT_EQ(h.sum(), 1u + (std::uint64_t(1) << 40) +
                           (std::uint64_t(1) << 41));
    EXPECT_EQ(h.maxValue(), std::uint64_t(1) << 41);
    EXPECT_EQ(h.percentile(0), 1u);
    EXPECT_EQ(h.p50(), 7u);
    EXPECT_EQ(h.p99(), 7u);
    EXPECT_EQ(h.percentile(100), 7u);
}

// ---------------------------------------------------------------
// Metrics registry (tentpole)
// ---------------------------------------------------------------

namespace
{

/** 4-core litmus config with the metrics registry enabled. */
SystemConfig
metricsConfig(Tick period)
{
    SystemConfig cfg = obsConfig(0, 0);
    cfg.obs.metricsPeriod = period;
    if (period == 0)
        cfg.obs.metrics = true;
    return cfg;
}

} // namespace

TEST(Metrics, OffByDefaultAndInvisibleToReports)
{
    Workload wl = makeLitmus(LitmusKind::Table1, 100);
    System plain(obsConfig(0, 0), wl);
    EXPECT_EQ(plain.metrics(), nullptr);
    EXPECT_EQ(plain.metricsStream(), nullptr);
    const SimResults rp = plain.run();

    // Same seed with the registry on: simulated results and the
    // stats dump must be byte-identical — gauges never enter the
    // StatRegistry, so reports cannot see the metrics layer.
    System on(metricsConfig(0), wl);
    ASSERT_NE(on.metrics(), nullptr);
    EXPECT_EQ(on.metricsStream(), nullptr); // no period, no stream
    const SimResults ro = on.run();

    EXPECT_EQ(rp.cycles, ro.cycles);
    EXPECT_EQ(rp.instructions, ro.instructions);
    std::ostringstream dp, doo;
    plain.stats().dump(dp);
    on.stats().dump(doo);
    EXPECT_EQ(dp.str(), doo.str());
}

TEST(Metrics, RegistryDescribesTypedSortedMetrics)
{
    Workload wl = makeLitmus(LitmusKind::Table1, 50);
    System sys(metricsConfig(0), wl);
    const MetricsRegistry *m = sys.metrics();
    ASSERT_NE(m, nullptr);
    EXPECT_GT(m->gaugeCount(), 0u);

    const auto descs = m->describe();
    ASSERT_GT(descs.size(), m->gaugeCount());
    bool sawCounter = false, sawGauge = false, sawHisto = false;
    bool sawUnit = false;
    for (std::size_t i = 0; i < descs.size(); ++i) {
        if (i) {
            EXPECT_LT(descs[i - 1].name, descs[i].name);
        }
        EXPECT_EQ(descs[i].component,
                  MetricsRegistry::componentOf(descs[i].name));
        sawCounter |= descs[i].kind == MetricKind::Counter;
        sawGauge |= descs[i].kind == MetricKind::Gauge;
        sawHisto |= descs[i].kind == MetricKind::Histogram;
        if (descs[i].name == "core.0.commits") {
            EXPECT_EQ(descs[i].unit, "instructions");
            sawUnit = true;
        }
    }
    EXPECT_TRUE(sawCounter);
    EXPECT_TRUE(sawGauge);
    EXPECT_TRUE(sawHisto);
    EXPECT_TRUE(sawUnit);
    EXPECT_EQ(MetricsRegistry::componentOf("l1.3.mshrs"), "l1.3");
    EXPECT_EQ(MetricsRegistry::componentOf("flat"), "");
}

TEST(Metrics, SummaryRollsUpCoreCounters)
{
    Workload wl = makeLitmus(LitmusKind::Table1, 100);
    System sys(metricsConfig(0), wl);
    const SimResults r = sys.run();
    ASSERT_TRUE(r.completed);
    MetricsSummary sum;
    sys.metrics()->values(&sum);
    // The roll-up is scoped to core.* counters (l1.N.stores etc.
    // must not double-count).
    std::uint64_t commits = 0, stores = 0;
    for (int i = 0; i < 4; ++i) {
        const std::string c = "core." + std::to_string(i);
        commits += sys.stats().counterValue(c + ".commits");
        stores += sys.stats().counterValue(c + ".stores");
    }
    EXPECT_EQ(sum.instructions, commits);
    EXPECT_EQ(sum.stores, stores);
    EXPECT_GT(sum.instructions, 0u);
    EXPECT_LT(sum.stores, sys.stats().sum("*.*.stores"));
}

// The telemetry roll-up and the run's results sum the same stats:
// the last summary a stream delivers is the run's final count.
TEST(Metrics, LastSummaryMatchesTheRunResults)
{
    Workload wl = makeLitmus(LitmusKind::Table1, 100);
    System sys(metricsConfig(500), wl);
    MetricsSummary last;
    sys.metricsStream()->setCallback(
        [&last](const MetricsSummary &sum, const std::string &) {
            last = sum;
        });
    const SimResults r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_GT(last.tick, 0u);
    EXPECT_GT(r.wbEntries, 0u);
    EXPECT_EQ(last.instructions, r.instructions);
    EXPECT_EQ(last.stores, r.stores);
    EXPECT_EQ(last.wbEntries, r.wbEntries);
}

TEST(Metrics, StreamIsDeltaEncodedAndDeterministic)
{
    auto capture = [](std::vector<std::string> &lines) {
        Workload wl = makeLitmus(LitmusKind::Table1, 100);
        System sys(metricsConfig(500), wl);
        MetricsStreamer *ms = sys.metricsStream();
        EXPECT_NE(ms, nullptr);
        ms->setCallback([&lines](const MetricsSummary &,
                                 const std::string &line) {
            lines.push_back(line);
        });
        const SimResults r = sys.run();
        EXPECT_TRUE(r.completed);
        EXPECT_EQ(ms->linesEmitted(), lines.size());
    };
    std::vector<std::string> a, b;
    capture(a);
    capture(b);
    ASSERT_GE(a.size(), 3u); // header + >= 2 data lines
    EXPECT_EQ(a, b);         // byte-deterministic for a fixed seed

    // Header: schema + descriptor array, no wall key (never stamped
    // by the simulator itself).
    EXPECT_EQ(a[0].compare(0, 24, "{\"schema\":\"wb-metrics-1\""),
              0);
    EXPECT_NE(a[0].find("\"period\":500"), std::string::npos);
    EXPECT_EQ(a[0].find("\"wall\""), std::string::npos);
    EXPECT_NE(a[0].find("\"kind\":\"gauge\""), std::string::npos);

    // Data lines are tick-keyed and strictly tick-ordered.
    Tick prev = 0;
    for (std::size_t i = 1; i < a.size(); ++i) {
        ASSERT_EQ(a[i].compare(0, 8, "{\"tick\":"), 0) << a[i];
        const Tick t = Tick(std::strtoull(a[i].c_str() + 8,
                                          nullptr, 10));
        EXPECT_GT(t, prev);
        prev = t;
    }
    // Delta encoding: a metric that froze after the first snapshot
    // drops out of later lines. The gauges all read 0 once the
    // machine drains, so the final line must not repeat every
    // metric the first data line carried.
    EXPECT_NE(a[1], a.back());
}

TEST(Metrics, StreamBytesArePinned)
{
    Workload wl = makeLitmus(LitmusKind::Table1, 100);
    System sys(metricsConfig(500), wl);
    std::string stream;
    sys.metricsStream()->setCallback(
        [&stream](const MetricsSummary &, const std::string &line) {
            stream += line + '\n';
        });
    ASSERT_TRUE(sys.run().completed);
    EXPECT_EQ(stream.size(), 76277u);
    EXPECT_EQ(fnv1a64(stream), 0xe52a1541a678c949ULL);
}

TEST(Metrics, StreamerSkipsUnchangedPeriodsAndDuplicateTicks)
{
    StatRegistry st;
    StatGroup g(&st, "unit");
    Counter &c = g.counter("events");
    MetricsRegistry reg(&st);
    MetricsStreamer ms(&reg, 10);
    std::vector<std::string> lines;
    ms.setCallback([&lines](const MetricsSummary &,
                            const std::string &line) {
        lines.push_back(line);
    });

    ++c;
    ms.emit(10); // header + first data line
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_NE(lines[1].find("\"unit.events\":1"),
              std::string::npos);

    ms.emit(20); // nothing changed: no line
    EXPECT_EQ(lines.size(), 2u);

    c += 2;
    ms.emit(30);
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_NE(lines[2].find("{\"tick\":30,\"v\":{\"unit.events\":3}}"),
              std::string::npos);

    ms.finish(30); // same tick: no duplicate line
    EXPECT_EQ(lines.size(), 3u);
    EXPECT_EQ(ms.linesEmitted(), 3u);
}

TEST(Metrics, WallStampLivesInASeparateHeaderKey)
{
    StatRegistry st;
    MetricsRegistry reg(&st);
    MetricsStreamer ms(&reg, 10);
    std::vector<std::string> lines;
    ms.setCallback([&lines](const MetricsSummary &,
                            const std::string &line) {
        lines.push_back(line);
    });
    ms.stampWall(1234567);
    ms.finish(0);
    ASSERT_FALSE(lines.empty());
    EXPECT_NE(lines[0].find("\"wall\":{\"startedUnixMs\":1234567}"),
              std::string::npos);
}

TEST(Metrics, ExpositionIsDeterministicProm)
{
    Workload wl = makeLitmus(LitmusKind::Table1, 100);
    System sys(metricsConfig(0), wl);
    const SimResults r = sys.run();
    ASSERT_TRUE(r.completed);

    std::ostringstream a, b;
    sys.metrics()->writeExposition(a);
    sys.metrics()->writeExposition(b);
    EXPECT_EQ(a.str(), b.str());

    const std::string s = a.str();
    EXPECT_NE(s.find("# TYPE wb_commits counter"),
              std::string::npos);
    EXPECT_NE(s.find("wb_commits{component=\"core.0\","
                     "unit=\"instructions\"}"),
              std::string::npos);
    EXPECT_NE(s.find("# TYPE wb_rob gauge"), std::string::npos);
    // Histograms render as summaries with quantile series.
    EXPECT_NE(s.find("quantile=\"0.99\""), std::string::npos);
    EXPECT_NE(s.find("_count{"), std::string::npos);
}

TEST(Perfetto, TimelineGaugesExportAsCounterTracks)
{
    Workload wl = makeLitmus(LitmusKind::Table1, 100);
    SystemConfig cfg = obsConfig(1 << 12, 64);
    System sys(cfg, wl);
    const SimResults r = sys.run();
    ASSERT_TRUE(r.completed);
    ASSERT_NE(sys.timeline(), nullptr);

    std::ostringstream os;
    writePerfettoTrace(os, *sys.flightRecorder(), 4, 4,
                       sys.timeline());
    const std::string t = os.str();
    EXPECT_NE(t.find("\"occupancy gauges\""), std::string::npos);
    EXPECT_NE(t.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(t.find("\"name\":\"rob\""), std::string::npos);
    EXPECT_NE(t.find("\"name\":\"flits resp\""), std::string::npos);
    EXPECT_EQ(std::count(t.begin(), t.end(), '{'),
              std::count(t.begin(), t.end(), '}'));

    // Without a timeline the trace must not mention the gauge group.
    std::ostringstream plain;
    writePerfettoTrace(plain, *sys.flightRecorder(), 4, 4);
    EXPECT_EQ(plain.str().find("occupancy gauges"),
              std::string::npos);
}

} // namespace wb

/** @file Unit tests for stats, RNG, logging and the framing codec. */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/codec.hh"
#include "sim/log.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "system/system.hh"
#include "workload/litmus.hh"

namespace wb
{

TEST(Stats, CounterBasics)
{
    StatRegistry reg;
    StatGroup g(&reg, "unit");
    Counter &c = g.counter("events");
    ++c;
    c += 5;
    EXPECT_EQ(c.value(), 6u);
    EXPECT_EQ(reg.counterValue("unit.events"), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, SumCountersByPattern)
{
    StatRegistry reg;
    StatGroup a(&reg, "core.0");
    StatGroup b(&reg, "core.1");
    StatGroup l1(&reg, "l1.0");
    a.counter("commits") += 10;
    b.counter("commits") += 32;
    a.counter("other") += 5;
    l1.counter("commits") += 100;
    EXPECT_EQ(reg.sum("core.*.commits"), 42u);
    EXPECT_EQ(reg.sum("*.*.commits"), 142u);
    EXPECT_EQ(reg.sum("core.1.commits"), 32u);
    // '*' is exactly one segment, and literals match whole segments.
    EXPECT_EQ(reg.sum("*.commits"), 0u);
    EXPECT_EQ(reg.sum("core.*"), 0u);
    EXPECT_EQ(reg.sum("cor.*.commits"), 0u);
    EXPECT_EQ(reg.counterValue("core.9.commits"), 0u);
}

TEST(Stats, HistogramMoments)
{
    StatRegistry reg;
    StatGroup g(&reg, "unit");
    Histogram &h = g.histogram("lat");
    h.sample(1);
    h.sample(3);
    h.sample(8);
    EXPECT_EQ(h.samples(), 3u);
    EXPECT_EQ(h.minValue(), 1u);
    EXPECT_EQ(h.maxValue(), 8u);
    EXPECT_DOUBLE_EQ(h.mean(), 4.0);
}

TEST(Stats, GroupUnregistersOnDestruction)
{
    StatRegistry reg;
    {
        StatGroup g(&reg, "gone");
        g.counter("x");
        EXPECT_NE(reg.find("gone.x"), nullptr);
    }
    EXPECT_EQ(reg.find("gone.x"), nullptr);
}

TEST(Stats, DumpIsSorted)
{
    StatRegistry reg;
    StatGroup g(&reg, "z");
    StatGroup g2(&reg, "a");
    g.counter("one") += 1;
    g2.counter("two") += 2;
    std::ostringstream os;
    reg.dump(os);
    const std::string out = os.str();
    EXPECT_LT(out.find("a.two"), out.find("z.one"));
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    bool differs = false;
    Rng a2(42);
    for (int i = 0; i < 100; ++i)
        differs |= a2.next() != c.next();
    EXPECT_TRUE(differs);
}

TEST(Rng, BoundsRespected)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(r.below(10), 10u);
        const std::uint64_t v = r.range(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
}

TEST(Rng, ChanceRoughlyCalibrated)
{
    Rng r(11);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Log, PanicThrows)
{
    EXPECT_THROW(panic("boom %d", 7), std::logic_error);
    EXPECT_THROW(fatal("bad config"), std::runtime_error);
}

namespace
{

/** Run one 2-core table1 litmus System per mask, each on its own
 *  thread and all at once, and count the stderr lines they print. */
std::size_t
tracedLines(const std::vector<unsigned> &masks)
{
    const Workload wl = makeLitmus(LitmusKind::Table1, 40);
    testing::internal::CaptureStderr();
    std::vector<std::thread> threads;
    for (const unsigned mask : masks)
        threads.emplace_back([&wl, mask] {
            SystemConfig cfg;
            cfg.numCores = 2;
            cfg.mesh.fit(2);
            cfg.setMode(CommitMode::OooWB);
            cfg.obs.trace = mask;
            try {
                System sys(cfg, wl);
                EXPECT_TRUE(sys.run().completed);
            } catch (const std::exception &e) {
                ADD_FAILURE() << e.what();
            }
        });
    for (std::thread &t : threads)
        t.join();
    const std::string out = testing::internal::GetCapturedStderr();
    return std::size_t(std::count(out.begin(), out.end(), '\n'));
}

} // namespace

TEST(Log, TraceMaskIsPerSystem)
{
    const unsigned all =
        unsigned(LogFlag::Core) | unsigned(LogFlag::Cache) |
        unsigned(LogFlag::Directory) | unsigned(LogFlag::Lockdown) |
        unsigned(LogFlag::Checker);
    const std::size_t alone = tracedLines({all});
    EXPECT_GT(alone, 0u);
    EXPECT_EQ(tracedLines({0}), 0u);
    // Side by side, the untraced System adds no line and the traced
    // one loses none.
    EXPECT_EQ(tracedLines({all, 0}), alone);
}

// ---------------------------------------------------------------
// Framing codec: every format's corruption guarantees rest on these
// ---------------------------------------------------------------

namespace
{

constexpr std::uint64_t kTestMagic = 0x3130544345535457ULL;

std::vector<unsigned char>
sampleBlob()
{
    ByteWriter w;
    w.blob(std::vector<unsigned char>{1, 2, 3, 4, 5, 6, 7, 8, 9});
    return w.take();
}

std::vector<unsigned char>
sampleContainer()
{
    return encodeSectioned(kTestMagic, 3, {77, 0xfeedULL},
                           {{"a", {1, 2, 3}},
                            {"empty", {}},
                            {"c", std::vector<unsigned char>(40, 9)}});
}

/** Decode every section of a sampleContainer()-shaped file. */
std::vector<Section>
decodeAll(std::span<const unsigned char> bytes)
{
    SectionedReader r(bytes, kTestMagic, 3, 2);
    std::vector<Section> out;
    for (std::uint32_t i = 0; i < r.sectionCount(); ++i) {
        auto [name, payload] = r.next();
        out.push_back({name, {payload.begin(), payload.end()}});
    }
    r.finish();
    return out;
}

/** Reseal a container after editing it: recompute the whole-file
 *  checksum so only the edit itself can be rejected. */
void
reseal(std::vector<unsigned char> &bytes)
{
    const std::uint64_t sum = fnv1a64(bytes.data(), bytes.size() - 8);
    for (int i = 0; i < 8; ++i)
        bytes[bytes.size() - 8 + std::size_t(i)] =
            static_cast<unsigned char>(sum >> (8 * i));
}

} // namespace

TEST(ByteCodec, BlobRoundTripsAsAViewOfItsPayload)
{
    const auto bytes = sampleBlob();
    ASSERT_EQ(bytes.size(), 16u + 9u);
    ByteReader r(bytes);
    const auto payload = r.blob();
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(payload.data(), bytes.data() + 16);
    EXPECT_EQ(
        std::vector<unsigned char>(payload.begin(), payload.end()),
        (std::vector<unsigned char>{1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(ByteCodec, EveryBlobBitFlipAndTruncationIsRejected)
{
    const auto bytes = sampleBlob();
    auto mutated = bytes;
    for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            mutated[byte] ^= static_cast<unsigned char>(1u << bit);
            ByteReader r(mutated);
            EXPECT_THROW(r.blob(), ByteCodecError)
                << "byte " << byte << " bit " << bit;
            mutated[byte] ^= static_cast<unsigned char>(1u << bit);
        }
    }
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        ByteReader r(bytes.data(), len);
        EXPECT_THROW(r.blob(), ByteCodecError) << "cut to " << len;
    }
}

TEST(ByteCodec, OversizedBlobLengthIsRejectedWithoutAllocating)
{
    ByteWriter w;
    w.u64(~std::uint64_t(0));
    w.u64(0);
    w.u64(0);
    const auto bytes = w.take();
    ByteReader r(bytes);
    EXPECT_THROW(r.blob(), ByteCodecError);
}

TEST(ByteCodec, SectionedContainerRoundTrips)
{
    const auto bytes = sampleContainer();
    SectionedReader r(bytes, kTestMagic, 3, 2);
    EXPECT_EQ(r.sectionCount(), 3u);
    EXPECT_EQ(r.word(0), 77u);
    EXPECT_EQ(r.word(1), 0xfeedu);
    EXPECT_EQ(r.next("a").second.size(), 3u);
    EXPECT_EQ(r.next().first, "empty");
    EXPECT_THROW(r.next("b"), ByteCodecError); // wrong name
    EXPECT_EQ(decodeAll(bytes).size(), 3u);
    EXPECT_THROW(SectionedReader(bytes, kTestMagic + 1, 3, 2),
                 ByteCodecError);
    EXPECT_THROW(SectionedReader(bytes, kTestMagic, 4, 2),
                 ByteCodecError);
}

TEST(ByteCodec, EverySectionedBitFlipIsRejected)
{
    const auto bytes = sampleContainer();
    auto mutated = bytes;
    for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            mutated[byte] ^= static_cast<unsigned char>(1u << bit);
            EXPECT_THROW(decodeAll(mutated), ByteCodecError)
                << "byte " << byte << " bit " << bit;
            mutated[byte] ^= static_cast<unsigned char>(1u << bit);
        }
    }
    EXPECT_NO_THROW(decodeAll(mutated));
}

TEST(ByteCodec, EverySectionedTruncationIsRejected)
{
    const auto bytes = sampleContainer();
    for (std::size_t len = 0; len < bytes.size(); ++len)
        EXPECT_THROW(decodeAll({bytes.data(), len}), ByteCodecError)
            << "cut to " << len;
}

TEST(ByteCodec, SectionedTrailingGarbageIsRejected)
{
    auto bytes = sampleContainer();
    bytes.insert(bytes.end() - 8, 0); // inside the sealed body
    reseal(bytes);
    EXPECT_THROW(decodeAll(bytes), ByteCodecError);
    bytes = sampleContainer();
    bytes.push_back(0); // after the file checksum
    EXPECT_THROW(decodeAll(bytes), ByteCodecError);
}

// A section table that lies about a length, under a valid file
// checksum, is still rejected by the bounds check, not trusted.
TEST(ByteCodec, OversizedSectionLengthIsRejected)
{
    auto bytes = sampleContainer();
    const std::size_t len_at = 8 + 4 + 4 + 2 * 8 + 8 + 4 + 1;
    for (int i = 0; i < 8; ++i)
        bytes[len_at + std::size_t(i)] = 0x7f;
    reseal(bytes);
    try {
        decodeAll(bytes);
        FAIL() << "oversized section length decoded";
    } catch (const ByteCodecError &e) {
        EXPECT_NE(std::string(e.what()).find("section 'a'"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace wb

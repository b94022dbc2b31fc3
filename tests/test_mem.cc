/** @file Unit tests for address math, data blocks, cache arrays. */

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "coherence/main_memory.hh"
#include "mem/addr.hh"
#include "mem/cache_array.hh"
#include "mem/data_block.hh"
#include "sim/bytes.hh"
#include "system/system.hh"
#include "workload/litmus.hh"

namespace wb
{

TEST(Addr, Geometry)
{
    EXPECT_EQ(lineOf(0x12345), 0x12340u);
    EXPECT_EQ(wordOf(0x12345), 0x12340u);
    EXPECT_EQ(wordOf(0x1234F), 0x12348u);
    EXPECT_EQ(wordIndex(0x12340), 0u);
    EXPECT_EQ(wordIndex(0x12378), 7u);
    EXPECT_EQ(homeBank(0x40, 16), BankId(1));
    EXPECT_EQ(homeBank(0x400, 16), BankId(0));
}

TEST(DataBlock, ReadWriteVersioned)
{
    DataBlock b;
    EXPECT_EQ(b.readWord(0x1008), 0u);
    EXPECT_EQ(b.readVersion(0x1008), 0u);
    b.writeWord(0x1008, 77, 3);
    EXPECT_EQ(b.readWord(0x1008), 77u);
    EXPECT_EQ(b.readVersion(0x1008), 3u);
    EXPECT_EQ(b.readWord(0x1000), 0u); // other word untouched
}

TEST(CacheArray, HitMissAllocate)
{
    CacheArray<int> c(1024, 2); // 8 sets x 2 ways
    EXPECT_EQ(c.numSets(), 8u);
    EXPECT_EQ(c.find(0x000), nullptr);
    c.allocate(0x000) = 42;
    ASSERT_NE(c.find(0x000), nullptr);
    EXPECT_EQ(*c.find(0x000), 42);
    EXPECT_EQ(c.validLines(), 1u);
    c.erase(0x000);
    EXPECT_EQ(c.find(0x000), nullptr);
}

namespace
{

/** Find @p n distinct line addresses in the same set as @p base. */
template <typename Payload>
std::vector<Addr>
conflictingLines(const CacheArray<Payload> &c, Addr base, int n)
{
    std::vector<Addr> out{lineOf(base)};
    const unsigned set = c.setIndex(base);
    for (Addr a = lineOf(base) + lineBytes; int(out.size()) < n;
         a += lineBytes)
        if (c.setIndex(a) == set)
            out.push_back(a);
    return out;
}

} // namespace

TEST(CacheArray, LruVictimSelection)
{
    CacheArray<int> c(1024, 2);
    auto lines = conflictingLines(c, 0x000, 3);
    c.allocate(lines[0]) = 1;
    c.allocate(lines[1]) = 2;
    EXPECT_TRUE(c.needVictim(lines[2]));
    // Touch lines[0] so lines[1] becomes LRU.
    c.findAndTouch(lines[0]);
    Addr v = c.pickVictim(lines[2], [](Addr, const int &) {
        return true;
    });
    EXPECT_EQ(v, lines[1]);
    // Exclude lines[1]: the other way is picked.
    v = c.pickVictim(lines[2], [&](Addr a, const int &) {
        return a != lines[1];
    });
    EXPECT_EQ(v, lines[0]);
    // Exclude everything: no victim.
    v = c.pickVictim(lines[2], [](Addr, const int &) {
        return false;
    });
    EXPECT_EQ(v, invalidAddr);
}

TEST(CacheArray, SetIsolation)
{
    CacheArray<int> c(1024, 2);
    // Find two lines in different sets.
    Addr a = 0x000;
    Addr b = lineBytes;
    while (c.setIndex(b) == c.setIndex(a))
        b += lineBytes;
    c.allocate(a) = 1;
    c.allocate(b) = 2;
    // A third line in b's set with one free way needs no victim.
    EXPECT_FALSE(c.needVictim(b));
    EXPECT_EQ(c.validLines(), 2u);
}

TEST(CacheArray, ForEachVisitsAll)
{
    CacheArray<int> c(1024, 2);
    c.allocate(0x000) = 1;
    c.allocate(0x040) = 2;
    int sum = 0;
    c.forEach([&](Addr, int &v) { sum += v; });
    EXPECT_EQ(sum, 3);
}

namespace
{

/** Payload that counts how many of itself are alive. */
struct Counted
{
    static inline int live = 0;
    int v = 0;

    Counted() { ++live; }
    Counted(const Counted &o) : v(o.v) { ++live; }
    Counted &operator=(const Counted &) = default;
    ~Counted() { --live; }
};

/** A line in a different set from every line in @p taken. */
template <typename Payload>
Addr
lineInNewSet(const CacheArray<Payload> &c, const std::vector<Addr> &taken)
{
    for (Addr a = 0;; a += lineBytes) {
        bool fresh = true;
        for (Addr t : taken)
            fresh = fresh && c.setIndex(a) != c.setIndex(t);
        if (fresh)
            return a;
    }
}

} // namespace

// Sets are built by their first allocate(): a new array holds no
// payloads, and a set holds assoc of them once it has held a line.
TEST(CacheArray, SetsAreBuiltOnFirstAllocate)
{
    Counted::live = 0;
    {
        CacheArray<Counted> c(64 * 1024, 4); // 256 sets x 4 ways
        EXPECT_EQ(Counted::live, 0);

        const Addr a = 0x1000;
        c.allocate(a).v = 1;
        EXPECT_EQ(Counted::live, 4);
        c.allocate(conflictingLines(c, a, 2)[1]).v = 2;
        EXPECT_EQ(Counted::live, 4) << "same set: nothing built";
        c.allocate(lineInNewSet(c, {a})).v = 3;
        EXPECT_EQ(Counted::live, 8);
        EXPECT_EQ(c.validLines(), 3u);
    }
    EXPECT_EQ(Counted::live, 0);
}

// A set no line was ever placed in reads as a set of invalid ways,
// and asking about it builds nothing.
TEST(CacheArray, UntouchedSetIsEmpty)
{
    Counted::live = 0;
    CacheArray<Counted> c(1024, 2);
    const Addr a = 0x2000;
    EXPECT_EQ(c.find(a), nullptr);
    EXPECT_EQ(c.findAndTouch(a), nullptr);
    EXPECT_FALSE(c.needVictim(a));
    EXPECT_EQ(c.pickVictim(a, [](Addr, const Counted &) {
                  return true;
              }),
              invalidAddr);
    int visited = 0;
    c.forEach([&](Addr, Counted &) { ++visited; });
    EXPECT_EQ(visited, 0);
    EXPECT_EQ(c.validLines(), 0u);
    EXPECT_EQ(Counted::live, 0);

    // Lines in another set leave this one empty.
    c.allocate(lineInNewSet(c, {a}));
    EXPECT_EQ(c.find(a), nullptr);
    EXPECT_FALSE(c.needVictim(a));
}

// allocate() resets the payload of a reused way.
TEST(CacheArray, ReusedWayStartsFromDefaultPayload)
{
    CacheArray<Counted> c(1024, 2);
    const auto lines = conflictingLines(c, 0x3000, 3);
    c.allocate(lines[0]).v = 7;
    c.allocate(lines[1]).v = 8;
    c.erase(lines[0]);
    EXPECT_EQ(c.allocate(lines[2]).v, 0);
    c.erase(lines[2]);
    EXPECT_EQ(c.allocate(lines[0]).v, 0);
    EXPECT_EQ(c.find(lines[1])->v, 8);
}

// A payload keeps its address while other sets are built: the LLC
// handlers hold a directory entry across allocate().
TEST(CacheArray, PayloadAddressIsStable)
{
    CacheArray<int> c(16 * 1024, 2); // 128 sets
    const Addr a = 0x4000;
    int *p = &c.allocate(a);
    *p = 5;
    std::vector<Addr> taken{a};
    while (taken.size() < c.numSets()) {
        const Addr b = lineInNewSet(c, taken);
        c.allocate(b);
        taken.push_back(b);
    }
    EXPECT_EQ(c.find(a), p);
    EXPECT_EQ(*p, 5);
}

// The snapshot witness numbers the line at set s, way w as
// s * assoc + w, whichever sets have been built.
TEST(CacheArray, SerializeNumbersSlotsBySetAndWay)
{
    CacheArray<int> c(1024, 2);
    const auto lines = conflictingLines(c, 0x5040, 2);
    const unsigned set = c.setIndex(lines[0]);
    ASSERT_NE(set, 0u);
    c.allocate(lines[0]) = 1;
    c.allocate(lines[1]) = 2;

    ByteWriter w;
    c.serializeState(w, [](ByteWriter &bw, const int &v) {
        bw.u64(std::uint64_t(v));
    });
    const auto bytes = w.take();
    ByteReader r(bytes.data(), bytes.size());
    EXPECT_EQ(r.u64(), 2u); // LRU clock
    EXPECT_EQ(r.u64(), 2u); // valid lines
    for (unsigned way = 0; way < 2; ++way) {
        EXPECT_EQ(r.u64(), std::uint64_t(set) * 2 + way);
        EXPECT_EQ(r.u64(), lines[way]);
        EXPECT_EQ(r.u64(), way + 1u); // LRU stamp
        EXPECT_EQ(r.u64(), way + 1u); // payload
    }
    EXPECT_TRUE(r.atEnd());
}

// A zero associativity used to divide by zero (SIGFPE) while the
// System was being built; it must be a fatal like a bad set count.

namespace
{

void
expectZeroAssocFatal(const MemSystemConfig &mem)
{
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.mesh.fit(2);
    cfg.mem = mem;
    try {
        System sys(cfg, makeLitmus(LitmusKind::Table1, 1));
        ADD_FAILURE() << "a zero associativity was accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(),
                     "fatal: cache: associativity must be at least 1");
    }
}

} // namespace

TEST(CacheArray, ZeroL1AssocIsFatal)
{
    MemSystemConfig mem;
    mem.l1Assoc = 0;
    expectZeroAssocFatal(mem);
}

TEST(CacheArray, ZeroL2AssocIsFatal)
{
    MemSystemConfig mem;
    mem.l2Assoc = 0;
    expectZeroAssocFatal(mem);
}

TEST(CacheArray, ZeroLlcAssocIsFatal)
{
    MemSystemConfig mem;
    mem.llcAssoc = 0;
    expectZeroAssocFatal(mem);
}

TEST(MainMemory, SparseDefaultZero)
{
    MainMemory m;
    EXPECT_EQ(m.peek(0x5000), 0u);
    m.poke(0x5008, 9);
    EXPECT_EQ(m.peek(0x5008), 9u);
    DataBlock b = m.read(0x5000);
    EXPECT_EQ(b.readWord(0x5008), 9u);
    EXPECT_EQ(b.readVersion(0x5008), 0u);
    b.writeWord(0x5010, 4, 1);
    m.write(0x5000, b);
    EXPECT_EQ(m.peek(0x5010), 4u);
}

} // namespace wb

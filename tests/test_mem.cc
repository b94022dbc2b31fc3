/** @file Unit tests for address math, data blocks, cache arrays. */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
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

// A payload exists only while its line is held. A new array holds
// none; one line in each of N sets holds at most N plus one chunk of
// slots, where a layout with payloads in the set blocks would hold
// N * assoc; a line erased and another allocated reuses the slot; and
// the array destroys every payload it still holds.
TEST(CacheArray, PayloadsAreHeldPerLine)
{
    Counted::live = 0;
    {
        CacheArray<Counted> c(64 * 1024, 4); // 256 sets x 4 ways
        EXPECT_EQ(Counted::live, 0);

        std::vector<Addr> lines;
        for (int i = 0; i < 100; ++i) {
            lines.push_back(lineInNewSet(c, lines));
            c.allocate(lines.back()).v = i;
        }
        EXPECT_EQ(c.validLines(), 100u);
        EXPECT_LE(Counted::live,
                  100 + int(CacheArray<Counted>::chunkSlots));

        const int held = Counted::live;
        for (int i = 0; i < 50; ++i) {
            c.erase(lines[std::size_t(i)]);
            lines.push_back(lineInNewSet(c, lines));
            c.allocate(lines.back()).v = 100 + i;
            EXPECT_EQ(Counted::live, held) << "after reuse " << i;
        }
        EXPECT_EQ(c.validLines(), 100u);
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

// The largest set count cacheGeometryError accepts is the largest
// power of two the array's unsigned set index holds, 2^31; 2^32 is
// refused, not cast to 0. (SystemMulti.ConfigRules has the 2^26-way
// and 2^32 + 1-set rows.) Only the predicate runs: arrays of these
// sizes would allocate gigabytes of set pointers.
TEST(CacheArray, SetCountStopsAtTheIndexWidth)
{
    const std::string too_many = "cache: number of sets (4294967296) "
                                 "must be at most 2147483648";
    for (const std::uint64_t ways : {1, 8}) {
        const std::uint64_t set_bytes = ways * lineBytes;
        EXPECT_EQ(cacheGeometryError(set_bytes << 31, unsigned(ways)), "");
        EXPECT_EQ(cacheGeometryError(set_bytes << 32, unsigned(ways)),
                  too_many);
    }
}

namespace
{

/** A payload that owns heap memory, so a leaked or twice-destroyed
 *  payload shows under ASan. */
struct Owning
{
    std::uint64_t id = 0;
    std::vector<std::uint64_t> owned;
};

/**
 * The reference model of a CacheArray: per set, a map from way to
 * line with explicit LRU stamps. It takes set indices from the array
 * under test and recomputes everything else.
 */
struct RefArray
{
    struct Line
    {
        Addr tag;
        std::uint64_t lru;
        std::uint64_t id;
    };

    unsigned assoc;
    std::vector<std::map<unsigned, Line>> sets;
    std::uint64_t clock = 0;

    Line *
    find(unsigned set, Addr a)
    {
        for (auto &[way, l] : sets[set])
            if (l.tag == a)
                return &l;
        return nullptr;
    }

    void
    allocate(unsigned set, Addr a, std::uint64_t id)
    {
        unsigned way = 0;
        while (sets[set].count(way))
            ++way;
        sets[set][way] = {a, ++clock, id};
    }

    void
    erase(unsigned set, Addr a)
    {
        std::erase_if(sets[set],
                      [&](const auto &wl) { return wl.second.tag == a; });
    }

    /** The LRU line that @p ok accepts; the lowest way on a tie. */
    template <typename Ok>
    Addr
    victim(unsigned set, Ok ok) const
    {
        const Line *best = nullptr;
        for (const auto &[way, l] : sets[set])
            if (ok(l.tag, l.id) && (!best || l.lru < best->lru))
                best = &l;
        return best ? best->tag : invalidAddr;
    }

    std::size_t
    lines() const
    {
        std::size_t n = 0;
        for (const auto &s : sets)
            n += s.size();
        return n;
    }

    /** (tag, id) of every line in slot order. */
    std::vector<std::pair<Addr, std::uint64_t>>
    contents() const
    {
        std::vector<std::pair<Addr, std::uint64_t>> out;
        for (const auto &s : sets)
            for (const auto &[way, l] : s)
                out.emplace_back(l.tag, l.id);
        return out;
    }

    std::vector<unsigned char>
    witness() const
    {
        ByteWriter w;
        w.u64(clock);
        w.u64(lines());
        for (std::size_t s = 0; s < sets.size(); ++s) {
            for (const auto &[way, l] : sets[s]) {
                w.u64(s * assoc + way);
                w.u64(l.tag);
                w.u64(l.lru);
                w.u64(l.id);
            }
        }
        return w.take();
    }
};

/** @p steps seeded random operations on a CacheArray and on the
 *  reference model, comparing every result and, after every step,
 *  validLines(), forEach order and the serializeState bytes. */
void
runDifferential(std::uint64_t size, unsigned assoc, unsigned divisor,
                std::uint64_t seed, int steps)
{
    CacheArray<Owning> c(size, assoc, divisor);
    const CacheArray<Owning> &cc = c;
    RefArray ref{assoc, std::vector<std::map<unsigned, RefArray::Line>>(
                            c.numSets())};
    std::mt19937_64 rng(seed);
    // Three lines per way, all in one bank's residue class, so sets
    // fill, evict and reuse slots.
    const std::uint64_t pool = 3ull * c.numSets() * assoc;
    std::uint64_t next_id = 0;
    for (int step = 0; step < steps; ++step) {
        SCOPED_TRACE("step " + std::to_string(step));
        const Addr a =
            ((rng() % pool) * divisor + divisor - 1) * lineBytes;
        const unsigned set = c.setIndex(a);
        RefArray::Line *rl = ref.find(set, a);
        // Victim predicates: accept every line, or refuse the lines
        // whose tag or id falls in a drawn residue class.
        const std::uint64_t pick = rng() % 6;
        auto ok = [&](Addr tag, std::uint64_t id) {
            switch (pick % 3) {
              case 0: return true;
              case 1: return (tag >> lineShift) % 3 != pick / 3;
              default: return id % 2 != pick / 3;
            }
        };
        auto evictable = [&](Addr tag, const Owning &p) {
            return ok(tag, p.id);
        };
        switch (rng() % 7) {
          case 0: {
            const Owning *p = cc.find(a);
            ASSERT_EQ(p != nullptr, rl != nullptr);
            if (p) {
                EXPECT_EQ(p->id, rl->id);
            }
            break;
          }
          case 1: {
            const Owning *p = c.findAndTouch(a);
            ASSERT_EQ(p != nullptr, rl != nullptr);
            if (p) {
                EXPECT_EQ(p->id, rl->id);
                rl->lru = ++ref.clock;
            }
            break;
          }
          case 2:
          case 3: {
            if (rl)
                break;
            const bool full = ref.sets[set].size() == assoc;
            ASSERT_EQ(c.needVictim(a), full);
            if (full) {
                const Addr v = c.pickVictim(a, evictable);
                ASSERT_EQ(v, ref.victim(set, ok));
                if (v == invalidAddr)
                    break;
                c.erase(v);
                ref.erase(set, v);
            }
            Owning &p = c.allocate(a);
            EXPECT_EQ(p.id, 0u);
            EXPECT_TRUE(p.owned.empty());
            p.id = ++next_id;
            p.owned.assign(next_id % 5 + 1, next_id);
            ref.allocate(set, a, next_id);
            break;
          }
          case 4:
            if (rl) {
                c.erase(a);
                ref.erase(set, a);
            }
            break;
          case 5:
            EXPECT_EQ(cc.needVictim(a), ref.sets[set].size() == assoc);
            break;
          default:
            EXPECT_EQ(cc.pickVictim(a, evictable), ref.victim(set, ok));
            break;
        }

        ASSERT_EQ(cc.validLines(), ref.lines());
        std::vector<std::pair<Addr, std::uint64_t>> seen, seen_const;
        c.forEach([&](Addr t, Owning &p) { seen.emplace_back(t, p.id); });
        cc.forEach([&](Addr t, const Owning &p) {
            seen_const.emplace_back(t, p.id);
        });
        const auto want = ref.contents();
        ASSERT_EQ(seen, want);
        ASSERT_EQ(seen_const, want);
        ByteWriter w;
        cc.serializeState(w, [](ByteWriter &bw, const Owning &p) {
            bw.u64(p.id);
        });
        ASSERT_EQ(w.buffer(), ref.witness());
    }
}

} // namespace

// The array against a plain model, over geometries from direct-mapped
// to fully associative (one set of 8, and one of 128 ways, which
// spans two slot chunks), with a banked index divisor too.
TEST(CacheArray, MatchesReferenceModel)
{
    struct Geometry
    {
        std::uint64_t size;
        unsigned assoc, divisor;
    };
    const Geometry geometries[] = {
        {16 * lineBytes, 1, 1},   {1024, 2, 1},
        {16 * 1024, 4, 4},        {32 * 1024, 8, 1},
        {8 * lineBytes, 8, 1},    {128 * lineBytes, 128, 1},
    };
    std::uint64_t seed = 1;
    for (const Geometry &g : geometries) {
        SCOPED_TRACE(std::to_string(g.size) + " B, " +
                     std::to_string(g.assoc) + " ways, divisor " +
                     std::to_string(g.divisor));
        runDifferential(g.size, g.assoc, g.divisor, seed++, 4000);
    }
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

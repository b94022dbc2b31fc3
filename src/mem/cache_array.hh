/**
 * @file
 * Generic set-associative cache array with true-LRU replacement.
 *
 * The array stores tags plus a caller-supplied per-line payload; the
 * coherence controllers keep MESI/directory state and the DataBlock in
 * the payload. Lookup and allocation never perform replacement side
 * effects themselves: the caller asks for a victim and handles the
 * eviction protocol.
 *
 * A set's ways are built the first time allocate() places a line in
 * it; until then the set is a null pointer that every method treats
 * as a set of invalid ways. A way holds its tag, LRU stamp and a
 * pointer to its payload, which lives in a slot of the array's slot
 * chunks while the line is held. A System therefore pays for the
 * lines its run holds, not for the whole capacity
 * (docs/PERFORMANCE.md).
 */

#ifndef WB_MEM_CACHE_ARRAY_HH
#define WB_MEM_CACHE_ARRAY_HH

#include <bit>
#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "mem/addr.hh"
#include "sim/bytes.hh"
#include "sim/log.hh"
#include "sim/types.hh"

namespace wb
{

/** Sets in a cache of @p size_bytes at @p assoc ways, computed in
 *  64 bits; 0 without a way. */
inline std::uint64_t
cacheSets(std::uint64_t size_bytes, unsigned assoc)
{
    return assoc ? size_bytes / (std::uint64_t{lineBytes} * assoc) : 0;
}

/** "" when @p size_bytes at @p assoc ways makes a CacheArray (one
 *  way or more, a power-of-two set count that the array's unsigned
 *  set index holds), else the rule broken. SystemConfig::validate
 *  checks a System's caches with it. */
inline std::string
cacheGeometryError(std::uint64_t size_bytes, unsigned assoc)
{
    if (assoc == 0)
        return "cache: associativity must be at least 1";
    const std::uint64_t sets = cacheSets(size_bytes, assoc);
    if (!std::has_single_bit(sets))
        return "cache: number of sets (" + std::to_string(sets) +
               ") must be a power of two";
    constexpr unsigned most =
        std::bit_floor(std::numeric_limits<unsigned>::max());
    if (sets > most)
        return "cache: number of sets (" + std::to_string(sets) +
               ") must be at most " + std::to_string(most);
    return "";
}

/**
 * Set-associative array of cache lines.
 *
 * @tparam Payload per-line state (coherence state, data, sharers...).
 *         Must be default constructible.
 */
template <typename Payload>
class CacheArray
{
  public:
    /** Payload slots per chunk. */
    static constexpr std::size_t chunkSlots = 64;

    /**
     * @param size_bytes total capacity
     * @param assoc ways per set
     * @param index_divisor divide the line number before indexing.
     *        A bank of an N-bank address-interleaved cache only ever
     *        sees line numbers congruent mod N; without dividing
     *        them out, only 1/N of the sets would be used.
     */
    CacheArray(std::uint64_t size_bytes, unsigned assoc,
               unsigned index_divisor = 1)
        : _assoc(assoc),
          _numSets(checkedSets(size_bytes, assoc)),
          _indexDivisor(index_divisor ? index_divisor : 1),
          _setBits(unsigned(std::countr_zero(_numSets))),
          _sets(_numSets)
    {
    }

    ~CacheArray()
    {
        eachValid(*this,
                  [](std::size_t, Way &w) { std::destroy_at(w.line); });
    }

    CacheArray(const CacheArray &) = delete;
    CacheArray &operator=(const CacheArray &) = delete;

    unsigned assoc() const { return _assoc; }
    unsigned numSets() const { return _numSets; }

    unsigned
    setIndex(Addr line_addr) const
    {
        // XOR-fold the upper line-number bits into the index. This
        // stands in for the physical-page randomisation a real OS
        // provides: workload regions at power-of-two-strided bases
        // would otherwise alias onto a handful of sets.
        const Addr n = (line_addr >> lineShift) / _indexDivisor;
        const Addr folded = n ^ (n >> _setBits) ^ (n >> (2 * _setBits));
        return unsigned(folded & (_numSets - 1));
    }

    /** Find a line; returns nullptr on miss. Does not touch LRU. */
    Payload *
    find(Addr line_addr)
    {
        Way *w = findWay(line_addr);
        return w ? w->line : nullptr;
    }

    const Payload *
    find(Addr line_addr) const
    {
        return const_cast<CacheArray *>(this)->find(line_addr);
    }

    /** Find a line and mark it most-recently used. */
    Payload *
    findAndTouch(Addr line_addr)
    {
        Way *w = findWay(line_addr);
        if (!w)
            return nullptr;
        w->lru = ++_lruClock;
        return w->line;
    }

    /**
     * Allocate a line that is known to be absent, with a
     * value-initialised payload. Requires a free way in the set
     * (check with needVictim()/pickVictim() first). The returned
     * reference stays valid until the line is erased: no allocation
     * moves another line's payload.
     */
    Payload &
    allocate(Addr line_addr)
    {
        assert(!find(line_addr));
        std::unique_ptr<Way[]> &set = _sets[setIndex(line_addr)];
        if (!set)
            set = std::make_unique<Way[]>(_assoc);
        Way *free_way = nullptr;
        for (unsigned i = 0; i < _assoc; ++i) {
            if (!set[i].line) {
                free_way = &set[i];
                break;
            }
        }
        assert(free_way && "allocate() without a free way");
        free_way->tag = line_addr;
        free_way->lru = ++_lruClock;
        free_way->line = newPayload();
        return *free_way->line;
    }

    /** True if allocating @p line_addr requires evicting first. */
    bool
    needVictim(Addr line_addr) const
    {
        const Way *set = _sets[setIndex(line_addr)].get();
        if (!set)
            return false;
        for (unsigned i = 0; i < _assoc; ++i)
            if (!set[i].line)
                return false;
        return true;
    }

    /**
     * Pick the LRU victim among the set's lines for which
     * @p evictable returns true. Returns the victim's line address,
     * or invalidAddr if nothing is evictable.
     */
    template <typename Pred>
    Addr
    pickVictim(Addr line_addr, Pred evictable) const
    {
        const Way *set = _sets[setIndex(line_addr)].get();
        if (!set)
            return invalidAddr;
        const Way *best = nullptr;
        for (unsigned i = 0; i < _assoc; ++i) {
            const Way &w = set[i];
            if (!w.line || !evictable(w.tag, std::as_const(*w.line)))
                continue;
            if (!best || w.lru < best->lru)
                best = &w;
        }
        return best ? best->tag : invalidAddr;
    }

    /** Remove a line that must be present. Its payload is destroyed
     *  and its slot may go to a line in any set: read nothing of the
     *  payload after this. */
    void
    erase(Addr line_addr)
    {
        Way *w = findWay(line_addr);
        assert(w && "erase() of absent line");
        std::destroy_at(w->line);
        _free.push_back(w->line);
        w->line = nullptr;
    }

    /** Visit every valid line in slot order: fn(lineAddr, payload&). */
    template <typename Fn>
    void
    forEach(Fn fn)
    {
        eachValid(*this, [&](std::size_t, Way &w) { fn(w.tag, *w.line); });
    }

    /** Visit every valid line in slot order:
     *  fn(lineAddr, const payload&). */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        eachValid(*this, [&](std::size_t, const Way &w) {
            fn(w.tag, std::as_const(*w.line));
        });
    }

    /** Every slot off the free list holds one valid line's payload. */
    std::size_t
    validLines() const
    {
        return _chunks.size() * chunkSlots - _free.size();
    }

    /** Snapshot witness: LRU clock plus every valid way in slot
     *  order (slot index set * assoc + way, tag, lru stamp), payload
     *  encoded by @p fn(writer, payload). Slot numbers are simulated
     *  state: they do not depend on which sets have been built or
     *  where the payloads live. */
    template <typename Fn>
    void
    serializeState(ByteWriter &w, Fn fn) const
    {
        w.u64(_lruClock);
        w.u64(validLines());
        eachValid(*this, [&](std::size_t slot, const Way &way) {
            w.u64(slot);
            w.u64(way.tag);
            w.u64(way.lru);
            fn(w, std::as_const(*way.line));
        });
    }

  private:
    /** 24 bytes: a search reads the set's ways and no payload. */
    struct Way
    {
        Addr tag = 0; // full line address for simplicity
        std::uint64_t lru = 0;
        Payload *line = nullptr; //!< null: the way is invalid
    };

    /** Storage for one payload, constructed only while it is held. */
    struct Slot
    {
        alignas(Payload) unsigned char bytes[sizeof(Payload)];
    };

    static unsigned
    checkedSets(std::uint64_t size_bytes, unsigned assoc)
    {
        const std::string err = cacheGeometryError(size_bytes, assoc);
        if (!err.empty())
            fatal("%s", err.c_str());
        return unsigned(cacheSets(size_bytes, assoc));
    }

    /** A value-initialised payload in the most recently freed slot,
     *  or in a new chunk's first when none is free. */
    Payload *
    newPayload()
    {
        if (_free.empty()) {
            _chunks.push_back(
                std::make_unique_for_overwrite<Slot[]>(chunkSlots));
            // Room for every slot, so erase() never allocates.
            _free.reserve(_chunks.size() * chunkSlots);
            for (std::size_t i = chunkSlots; i-- > 0;)
                _free.push_back(&_chunks.back()[i]);
        }
        void *slot = _free.back();
        _free.pop_back();
        return ::new (slot) Payload();
    }

    Way *
    findWay(Addr line_addr)
    {
        Way *set = _sets[setIndex(line_addr)].get();
        if (!set)
            return nullptr;
        for (unsigned i = 0; i < _assoc; ++i)
            if (set[i].tag == line_addr && set[i].line)
                return &set[i];
        return nullptr;
    }

    /** fn(slot, way) for every valid way of every built set, in
     *  slot order; @p self is *this, const or not. */
    template <typename Self, typename Fn>
    static void
    eachValid(Self &self, Fn fn)
    {
        for (std::size_t s = 0; s < self._sets.size(); ++s) {
            if (!self._sets[s])
                continue;
            for (unsigned i = 0; i < self._assoc; ++i)
                if (self._sets[s][i].line)
                    fn(s * self._assoc + i, self._sets[s][i]);
        }
    }

    unsigned _assoc;
    unsigned _numSets;
    unsigned _indexDivisor;
    unsigned _setBits;
    /** One block of _assoc ways per set; null until the set's first
     *  allocate(). */
    std::vector<std::unique_ptr<Way[]>> _sets;
    /** Payload storage. Chunks are never freed or moved before the
     *  array is, so a payload keeps its address while it is held. */
    std::vector<std::unique_ptr<Slot[]>> _chunks;
    /** Free slots, last freed on top. */
    std::vector<void *> _free;
    std::uint64_t _lruClock = 0;
};

} // namespace wb

#endif // WB_MEM_CACHE_ARRAY_HH

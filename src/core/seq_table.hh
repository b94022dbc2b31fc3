/**
 * @file
 * Flat, sequence-number-indexed replacement for the per-cycle
 * std::map walks in the core (ROB, LQ, SQ).
 *
 * Keys are InstSeqNums handed out by a monotone counter, so the set
 * of live keys always occupies a bounded span [frontSeq, backSeq].
 * Entries live in a power-of-two ring indexed by `seq & mask`:
 * lookup and erase are O(1) pointer-free probes, and a doubly-linked
 * list threaded through the live slots provides iteration in
 * ascending sequence order — the exact order std::map iteration
 * gave, which the simulator's determinism contract depends on.
 *
 * Requirements on the caller:
 *  - emplace() keys must be strictly increasing over the table's
 *    lifetime (sequence numbers are never reused; squashes only
 *    remove the young end);
 *  - the live span can exceed any fixed structural size (out-of-
 *    order commit punches holes behind a stuck head), so the ring
 *    grows — doubling — whenever a new key would wrap onto a live
 *    slot. emplace() therefore invalidates iterators/references;
 *    erase() invalidates only the erased element.
 *
 * Iteration yields a proxy `Ref{first, second}` instead of a real
 * pair, so range-for uses `for (auto [seq, v] : table)` (no `&` —
 * `second` is itself a reference into the table).
 */

#ifndef WB_CORE_SEQ_TABLE_HH
#define WB_CORE_SEQ_TABLE_HH

#include <cassert>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace wb
{

template <typename T>
class SeqTable
{
    static constexpr std::uint32_t npos = ~std::uint32_t(0);

    struct Slot
    {
        T value{};
        InstSeqNum seq = 0;
        std::uint32_t prev = npos;
        std::uint32_t next = npos;
        bool live = false;
    };

  public:
    template <bool Const>
    class Iter
    {
        using TableT =
            std::conditional_t<Const, const SeqTable, SeqTable>;
        using ValT = std::conditional_t<Const, const T, T>;

      public:
        /** Proxy mimicking std::map's value_type access. */
        struct Ref
        {
            InstSeqNum first;
            ValT &second;
        };

        Iter() = default;

        Ref
        operator*() const
        {
            auto &s = _t->_slots[_idx];
            return Ref{s.seq, s.value};
        }

        struct Arrow
        {
            Ref ref;
            Ref *operator->() { return &ref; }
        };
        Arrow operator->() const { return Arrow{**this}; }

        Iter &
        operator++()
        {
            _idx = _t->_slots[_idx].next;
            return *this;
        }

        /** Decrementing end() lands on the last element. */
        Iter &
        operator--()
        {
            _idx = _idx == npos ? _t->_tail
                                : _t->_slots[_idx].prev;
            return *this;
        }

        bool
        operator==(const Iter &o) const
        {
            return _idx == o._idx;
        }
        bool
        operator!=(const Iter &o) const
        {
            return _idx != o._idx;
        }

      private:
        friend class SeqTable;
        Iter(TableT *t, std::uint32_t idx) : _t(t), _idx(idx) {}

        TableT *_t = nullptr;
        std::uint32_t _idx = npos;
    };

    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    explicit SeqTable(std::size_t capacityHint = 256)
    {
        std::size_t cap = 8;
        while (cap < capacityHint)
            cap <<= 1;
        _slots.resize(cap);
    }

    std::size_t size() const { return _size; }
    bool empty() const { return _size == 0; }

    /** Insert under a key greater than every key ever inserted. */
    T &
    emplace(InstSeqNum seq, T v)
    {
        assert(empty() || seq > _slots[_tail].seq);
        if (!empty())
            while (seq - _slots[_head].seq >= _slots.size())
                grow();
        const auto idx = std::uint32_t(seq & mask());
        Slot &s = _slots[idx];
        assert(!s.live && "seq span exceeded ring capacity");
        s.value = std::move(v);
        s.seq = seq;
        s.prev = _tail;
        s.next = npos;
        s.live = true;
        if (_tail != npos)
            _slots[_tail].next = idx;
        else
            _head = idx;
        _tail = idx;
        ++_size;
        return s.value;
    }

    T *
    find(InstSeqNum seq)
    {
        Slot &s = _slots[seq & mask()];
        return s.live && s.seq == seq ? &s.value : nullptr;
    }

    const T *
    find(InstSeqNum seq) const
    {
        const Slot &s = _slots[seq & mask()];
        return s.live && s.seq == seq ? &s.value : nullptr;
    }

    /** @return true if @p seq was live and is now erased. */
    bool
    erase(InstSeqNum seq)
    {
        const auto idx = std::uint32_t(seq & mask());
        Slot &s = _slots[idx];
        if (!s.live || s.seq != seq)
            return false;
        unlink(idx);
        return true;
    }

    iterator begin() { return iterator(this, _head); }
    iterator end() { return iterator(this, npos); }
    const_iterator begin() const
    {
        return const_iterator(this, _head);
    }
    const_iterator end() const { return const_iterator(this, npos); }

    /** Oldest live entry; table must be non-empty. */
    T &front() { return _slots[_head].value; }
    const T &front() const { return _slots[_head].value; }

    /** Oldest live seq, or invalidSeqNum when empty. */
    InstSeqNum
    frontSeq() const
    {
        return _head == npos ? invalidSeqNum : _slots[_head].seq;
    }

    /** First element with seq >= @p seq (ascending probe over the
     *  bounded live span, O(span) worst case). */
    iterator
    lowerBound(InstSeqNum seq)
    {
        if (empty() || seq > _slots[_tail].seq)
            return end();
        if (seq <= _slots[_head].seq)
            return begin();
        for (InstSeqNum s = seq;; ++s) {
            const auto idx = std::uint32_t(s & mask());
            const Slot &sl = _slots[idx];
            if (sl.live && sl.seq == s)
                return iterator(this, idx);
        }
    }

    /** First element with seq > @p seq. */
    iterator upperBound(InstSeqNum seq)
    {
        return lowerBound(seq + 1);
    }

  private:
    std::size_t mask() const { return _slots.size() - 1; }

    void
    unlink(std::uint32_t idx)
    {
        Slot &s = _slots[idx];
        if (s.prev != npos)
            _slots[s.prev].next = s.next;
        else
            _head = s.next;
        if (s.next != npos)
            _slots[s.next].prev = s.prev;
        else
            _tail = s.prev;
        s.live = false;
        --_size;
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(_slots);
        _slots.assign(old.size() * 2, Slot{});
        std::uint32_t idx = _head;
        _head = _tail = npos;
        _size = 0;
        while (idx != npos) {
            Slot &os = old[idx];
            const std::uint32_t onext = os.next;
            const auto ni = std::uint32_t(os.seq & mask());
            Slot &ns = _slots[ni];
            ns.value = std::move(os.value);
            ns.seq = os.seq;
            ns.prev = _tail;
            ns.next = npos;
            ns.live = true;
            if (_tail != npos)
                _slots[_tail].next = ni;
            else
                _head = ni;
            _tail = ni;
            ++_size;
            idx = onext;
        }
    }

    std::vector<Slot> _slots;
    std::uint32_t _head = npos;
    std::uint32_t _tail = npos;
    std::size_t _size = 0;
};

} // namespace wb

#endif // WB_CORE_SEQ_TABLE_HH

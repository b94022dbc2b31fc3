/**
 * @file
 * Flat functional backing store behind the LLC.
 *
 * Timing is modelled at the LLC banks (Table 6: 160-cycle access);
 * this object only holds functional contents. Because the LLC is
 * inclusive, memory is only read for lines with no private copies,
 * so its contents are always current when read.
 *
 * The line store is striped by home bank (setBanks) so that under
 * sharding each LLC bank — and with it each shard — only ever
 * touches its own stripe: bank b is the single reader/writer of
 * stripe b, making concurrent shard access race-free without locks.
 */

#ifndef WB_COHERENCE_MAIN_MEMORY_HH
#define WB_COHERENCE_MAIN_MEMORY_HH

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mem/addr.hh"
#include "mem/data_block.hh"
#include "sim/bytes.hh"

namespace wb
{

/** Sparse functional main memory (line granularity). */
class MainMemory
{
  public:
    /**
     * Stripe the store by home bank (@p num_banks >= 1). Must be
     * called before any contents exist (i.e. before workload pokes):
     * restriping a populated memory would have to rehash every
     * line, and no caller needs that.
     */
    void
    setBanks(int num_banks)
    {
        if (std::size_t(num_banks) == _stripes.size())
            return;
        for (const auto &stripe : _stripes)
            if (!stripe.empty())
                return; // populated: keep the existing striping
        _stripes.assign(std::size_t(num_banks), {});
    }

    int numBanks() const { return int(_stripes.size()); }

    /** Read a full line; absent lines are zero, version 0. */
    DataBlock
    read(Addr line_addr) const
    {
        const auto &s = stripeOf(lineOf(line_addr));
        auto it = s.find(lineOf(line_addr));
        return it == s.end() ? DataBlock{} : it->second;
    }

    void
    write(Addr line_addr, const DataBlock &data)
    {
        stripeOf(lineOf(line_addr))[lineOf(line_addr)] = data;
    }

    /** Functional word write for workload initialisation (ver 0). */
    void
    poke(Addr addr, std::uint64_t value)
    {
        stripeOf(lineOf(addr))[lineOf(addr)].writeWord(addr, value,
                                                       0);
    }

    /** Functional word read (debug / final-state checks). */
    std::uint64_t
    peek(Addr addr) const
    {
        return read(lineOf(addr)).readWord(addr);
    }

    std::size_t
    lines() const
    {
        std::size_t n = 0;
        for (const auto &s : _stripes)
            n += s.size();
        return n;
    }

    /** Every populated line address, sorted (end-state equivalence
     *  checks need a deterministic enumeration order). */
    std::vector<Addr>
    lineAddrs() const
    {
        std::vector<Addr> out;
        out.reserve(lines());
        for (const auto &s : _stripes)
            for (const auto &[line, data] : s)
                out.push_back(line);
        std::sort(out.begin(), out.end());
        return out;
    }

    /** Snapshot witness: every populated line, addresses ascending,
     *  values and versions word by word. */
    void
    serializeState(ByteWriter &w) const
    {
        const std::vector<Addr> addrs = lineAddrs();
        w.u64(addrs.size());
        for (Addr a : addrs) {
            const DataBlock &d = stripeOf(a).at(a);
            w.u64(a);
            for (std::uint64_t v : d.value)
                w.u64(v);
            for (Version v : d.version)
                w.u64(v);
        }
    }

  private:
    using Stripe = std::unordered_map<Addr, DataBlock>;

    Stripe &
    stripeOf(Addr line)
    {
        return _stripes[std::size_t(
            homeBank(line, int(_stripes.size())))];
    }
    const Stripe &
    stripeOf(Addr line) const
    {
        return _stripes[std::size_t(
            homeBank(line, int(_stripes.size())))];
    }

    std::vector<Stripe> _stripes = std::vector<Stripe>(1);
};

} // namespace wb

#endif // WB_COHERENCE_MAIN_MEMORY_HH

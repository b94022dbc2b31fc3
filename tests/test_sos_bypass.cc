/**
 * @file
 * Targeted tests for the paper's deadlock-avoidance machinery
 * (Section 3.5): SoS loads must never block on MSHRs, blocked
 * writes, private writebacks, or directory resources. Each test
 * pins one bypass path using the scripted protocol rig.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "coherence/l1_controller.hh"
#include "coherence/llc_bank.hh"
#include "coherence/main_memory.hh"
#include "network/ideal.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace wb
{

namespace
{

class FakeCore : public CoreMemIf
{
  public:
    InvResponse invAnswer = InvResponse::Ack;
    bool lockHeld = false;
    /** Per-seq override of orderedness; default: ordered. */
    std::vector<InstSeqNum> unorderedSeqs;

    struct Response
    {
        InstSeqNum seq;
        std::uint64_t value;
        LoadSource src;
    };
    std::vector<Response> responses;
    std::vector<InstSeqNum> retries;
    std::vector<Addr> invalidations;

    InvResponse
    coherenceInvalidation(Addr line) override
    {
        invalidations.push_back(line);
        return invAnswer;
    }

    void
    loadResponse(InstSeqNum seq, Addr, std::uint64_t value,
                 Version, LoadSource src) override
    {
        responses.push_back({seq, value, src});
    }

    void
    loadMustRetry(InstSeqNum seq, Addr) override
    {
        retries.push_back(seq);
    }

    bool coherenceLockdownQuery(Addr) const override
    {
        return lockHeld;
    }

    bool
    isLoadOrdered(InstSeqNum seq) const override
    {
        for (InstSeqNum s : unorderedSeqs)
            if (s == seq)
                return false;
        return true;
    }
};

class Rig
{
  public:
    explicit Rig(int nodes, MemSystemConfig cfg = {})
    {
        cfg.numBanks = unsigned(nodes);
        IdealNetworkConfig nc;
        nc.numNodes = nodes;
        nc.baseLatency = 4;
        nc.jitter = 0;
        net = std::make_unique<IdealNetwork>("net", &eq, &stats,
                                             nc);
        for (int i = 0; i < nodes; ++i) {
            cores.push_back(std::make_unique<FakeCore>());
            l1s.push_back(std::make_unique<L1Controller>(
                "l1." + std::to_string(i), &eq, &stats, i, cfg,
                net.get(), nodes));
            llcs.push_back(std::make_unique<LLCBank>(
                "llc." + std::to_string(i), &eq, &stats, i, cfg,
                net.get(), &memory));
            l1s.back()->setCore(cores.back().get());
        }
        for (int i = 0; i < nodes; ++i) {
            L1Controller *l1 = l1s[std::size_t(i)].get();
            LLCBank *llc = llcs[std::size_t(i)].get();
            net->registerNode(i, [l1, llc](MsgPtr msg) {
                auto *cm = static_cast<CohMsg *>(msg.get());
                if (cohToDirectory(cm->type))
                    llc->handleMessage(std::move(msg));
                else
                    l1->handleMessage(std::move(msg));
            });
        }
    }

    void
    run(Tick n = 800)
    {
        for (Tick i = 0; i < n; ++i) {
            ++cycle;
            net->deliverTick(cycle, eq);
            eq.runUntil(cycle);
            for (auto &l1 : l1s)
                l1->tick();
            for (auto &llc : llcs)
                llc->tick();
        }
    }

    FakeCore &core(int i) { return *cores[std::size_t(i)]; }
    L1Controller &l1(int i) { return *l1s[std::size_t(i)]; }
    LLCBank &llc(int i) { return *llcs[std::size_t(i)]; }

    EventQueue eq;
    StatRegistry stats;
    MainMemory memory;
    std::unique_ptr<IdealNetwork> net;
    std::vector<std::unique_ptr<FakeCore>> cores;
    std::vector<std::unique_ptr<L1Controller>> l1s;
    std::vector<std::unique_ptr<LLCBank>> llcs;
    Tick cycle = 0;
};

constexpr Addr A = 0x1000;

bool
gotResponse(const FakeCore &c, InstSeqNum seq)
{
    for (const auto &r : c.responses)
        if (r.seq == seq)
            return true;
    return false;
}

std::uint64_t
valueOf(const FakeCore &c, InstSeqNum seq)
{
    for (const auto &r : c.responses)
        if (r.seq == seq)
            return r.value;
    return ~std::uint64_t(0);
}

} // namespace

TEST(SosBypass, MshrExhaustionUsesReservedEntry)
{
    MemSystemConfig cfg;
    cfg.numMshrs = 1;
    Rig rig(2, cfg);
    rig.memory.poke(A, 1);
    rig.memory.poke(A + 0x400, 2);
    rig.memory.poke(A + 0x800, 3);

    // Occupy the single MSHR with an unordered load...
    rig.core(0).unorderedSeqs = {10, 11};
    ASSERT_TRUE(rig.l1(0).issueLoad(10, A + 0x400));
    // ...a second unordered load to a different line must fail...
    EXPECT_FALSE(rig.l1(0).issueLoad(11, A + 0x800));
    // ...but the SoS (ordered) load gets the reserved GetU path.
    EXPECT_TRUE(rig.l1(0).issueLoad(1, A));
    rig.run();
    EXPECT_TRUE(gotResponse(rig.core(0), 1));
    EXPECT_TRUE(gotResponse(rig.core(0), 10));
    EXPECT_GE(rig.stats.counterValue("l1.0.getU"), 1u);
}

TEST(SosBypass, BlockedWriteHintTriggersGetU)
{
    // Figure 5.B: the SoS load piggybacks on a write MSHR whose
    // write is blocked in WritersBlock; the BlockedHint must let it
    // escape through the reserved uncacheable read.
    Rig rig(3);
    rig.memory.poke(A, 7);
    ASSERT_TRUE(rig.l1(1).issueLoad(1, A));
    rig.run();
    rig.core(1).invAnswer = InvResponse::Nack;
    rig.core(1).lockHeld = true;

    // Writer core 0 blocks in WritersBlock...
    rig.l1(0).requestWritePermission(lineOf(A));
    rig.run();
    ASSERT_TRUE(rig.l1(0).isWriteBlocked(lineOf(A)));

    // A second writer (core 2) defers at the directory; its own
    // ordered load piggybacked on that blocked write must bypass.
    rig.l1(2).requestWritePermission(lineOf(A));
    rig.run();
    ASSERT_TRUE(rig.l1(2).isWriteBlocked(lineOf(A)));
    ASSERT_TRUE(rig.l1(2).issueLoad(5, A));
    rig.run();
    EXPECT_TRUE(gotResponse(rig.core(2), 5))
        << "SoS load stuck behind a blocked write";
    const auto &resp = rig.core(2).responses;
    ASSERT_FALSE(resp.empty());
    EXPECT_EQ(resp.back().src, LoadSource::TearOff);
    EXPECT_EQ(resp.back().value, 7u); // pre-write value

    // Unwind.
    rig.core(1).lockHeld = false;
    rig.core(1).invAnswer = InvResponse::Ack;
    rig.l1(1).lockdownLifted(lineOf(A));
    rig.run(4000);
    EXPECT_TRUE(rig.l1(2).hasWritePermission(lineOf(A)) ||
                rig.l1(0).hasWritePermission(lineOf(A)));
}

TEST(SosBypass, PrivateWritebackConflictBypassed)
{
    // An ordered load to a line whose writeback is in flight uses
    // the uncacheable path instead of waiting for the WBAck.
    MemSystemConfig cfg;
    cfg.l1Size = 512;
    cfg.l2Size = 1024; // 16 lines: easy to evict
    Rig rig(2, cfg);
    rig.l1(0).requestWritePermission(lineOf(A));
    rig.run();
    rig.l1(0).performStore(A, 99);
    // Evict A by filling the cache; A's PutM enters the writeback
    // buffer. Detect the moment A leaves the array.
    InstSeqNum seq = 100;
    for (int i = 1; i <= 40 && rig.l1(0).lineCached(lineOf(A));
         ++i) {
        ASSERT_TRUE(
            rig.l1(0).issueLoad(seq++, A + Addr(i) * lineBytes));
        rig.run(120);
    }
    ASSERT_FALSE(rig.l1(0).lineCached(lineOf(A)));
    // Ordered load to A: even if the writeback has not settled it
    // must complete (bypass or post-WBAck reissue).
    ASSERT_TRUE(rig.l1(0).issueLoad(999, A));
    rig.run(2000);
    ASSERT_TRUE(gotResponse(rig.core(0), 999));
    EXPECT_EQ(valueOf(rig.core(0), 999), 99u);
}

TEST(SosBypass, UnorderedLoadsWaitBehindWriteback)
{
    MemSystemConfig cfg;
    cfg.l1Size = 512;
    cfg.l2Size = 1024;
    Rig rig(2, cfg);
    rig.l1(0).requestWritePermission(lineOf(A));
    rig.run();
    rig.l1(0).performStore(A, 55);
    InstSeqNum seq = 100;
    for (int i = 1; i <= 40 && rig.l1(0).lineCached(lineOf(A));
         ++i) {
        ASSERT_TRUE(
            rig.l1(0).issueLoad(seq++, A + Addr(i) * lineBytes));
        rig.run(120);
    }
    ASSERT_FALSE(rig.l1(0).lineCached(lineOf(A)));
    // Unordered load: parks until the writeback settles, then must
    // still complete with the written value.
    rig.core(0).unorderedSeqs = {777};
    ASSERT_TRUE(rig.l1(0).issueLoad(777, A));
    rig.run(4000);
    ASSERT_TRUE(gotResponse(rig.core(0), 777));
    EXPECT_EQ(valueOf(rig.core(0), 777), 55u);
}

TEST(SosBypass, EvictionBufferFullFallsBackToUncacheable)
{
    // Section 3.5.1: when no directory slot and no eviction-buffer
    // room can be found, reads are served uncacheable from memory
    // rather than blocking.
    MemSystemConfig cfg;
    cfg.llcBankSize = 1024; // 2 sets x 8 ways
    cfg.llcEvictionBuffer = 0;
    Rig rig(2, cfg);
    // Fill one bank with owned lines (EM entries are not droppable
    // without a recall, and the buffer has no room).
    InstSeqNum seq = 1;
    const BankId home = homeBank(lineOf(A), 2);
    int filled = 0;
    for (int i = 0; filled < 40 && i < 400; ++i) {
        const Addr a = A + Addr(i) * lineBytes;
        if (homeBank(lineOf(a), 2) != home)
            continue;
        ++filled;
        ASSERT_TRUE(rig.l1(0).issueLoad(seq++, a));
        rig.run(60);
    }
    rig.run(2000);
    // Loads kept completing throughout (uncacheable fallback).
    EXPECT_GE(rig.core(0).responses.size(), 30u);
    EXPECT_GT(rig.stats.counterValue("llc." + std::to_string(home) +
                                     ".evbufFallbacks") +
                  rig.stats.counterValue(
                      "llc." + std::to_string(home) +
                      ".uncacheableReads"),
              0u);
}

} // namespace wb

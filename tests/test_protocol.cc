/**
 * @file
 * Protocol-level tests: L1 controllers + LLC banks driven by
 * scripted fake cores, no pipeline. Each test pins one transaction
 * flow of the (WritersBlock-extended) MESI directory protocol.
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

/** Scriptable core-side endpoint. */
class FakeCore : public CoreMemIf
{
  public:
    struct Response
    {
        InstSeqNum seq;
        Addr addr;
        std::uint64_t value;
        Version ver;
        LoadSource src;
    };

    InvResponse invAnswer = InvResponse::Ack;
    bool ordered = true;   //!< isLoadOrdered() answer
    bool lockHeld = false; //!< coherenceLockdownQuery() answer

    std::vector<Addr> invalidations;
    std::vector<Response> responses;
    std::vector<InstSeqNum> retries;

    InvResponse
    coherenceInvalidation(Addr line) override
    {
        invalidations.push_back(line);
        return invAnswer;
    }

    void
    loadResponse(InstSeqNum seq, Addr addr, std::uint64_t value,
                 Version ver, LoadSource src) override
    {
        responses.push_back({seq, addr, value, ver, src});
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

    bool isLoadOrdered(InstSeqNum) const override
    {
        return ordered;
    }
};

/** A tiny n-node memory system with fake cores. */
class ProtocolRig
{
  public:
    explicit ProtocolRig(int nodes, MemSystemConfig cfg = {})
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

    /** Advance @p n cycles. */
    void
    run(Tick n = 600)
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

constexpr Addr A = 0x1000; // home bank = (0x1000>>6)%nodes

} // namespace

TEST(Protocol, ColdLoadMissAndRefill)
{
    ProtocolRig rig(2);
    rig.memory.poke(A, 77);
    ASSERT_TRUE(rig.l1(0).issueLoad(1, A));
    rig.run();
    ASSERT_EQ(rig.core(0).responses.size(), 1u);
    auto &r = rig.core(0).responses[0];
    EXPECT_EQ(r.value, 77u);
    EXPECT_EQ(r.ver, 0u);
    EXPECT_EQ(r.src, LoadSource::CacheFill);
    EXPECT_TRUE(rig.l1(0).lineCached(lineOf(A)));

    // Second access hits in the L1.
    ASSERT_TRUE(rig.l1(0).issueLoad(2, A));
    rig.run(20);
    ASSERT_EQ(rig.core(0).responses.size(), 2u);
    EXPECT_EQ(rig.core(0).responses[1].src,
              LoadSource::CacheHitL1);
}

TEST(Protocol, StoreMakesValueVisibleViaOwnerForward)
{
    ProtocolRig rig(2);
    rig.l1(0).requestWritePermission(lineOf(A));
    rig.run();
    ASSERT_TRUE(rig.l1(0).hasWritePermission(lineOf(A)));
    const Version v = rig.l1(0).performStore(A, 123);
    EXPECT_EQ(v, 1u);

    // A reader on another core is forwarded to the owner (3-hop).
    ASSERT_TRUE(rig.l1(1).issueLoad(1, A));
    rig.run();
    ASSERT_EQ(rig.core(1).responses.size(), 1u);
    EXPECT_EQ(rig.core(1).responses[0].value, 123u);
    EXPECT_EQ(rig.core(1).responses[0].ver, 1u);
    // Owner was downgraded: no more write permission.
    EXPECT_FALSE(rig.l1(0).hasWritePermission(lineOf(A)));
    EXPECT_TRUE(rig.l1(0).lineCached(lineOf(A)));
}

TEST(Protocol, WriteInvalidatesSharers)
{
    ProtocolRig rig(3);
    ASSERT_TRUE(rig.l1(1).issueLoad(1, A));
    ASSERT_TRUE(rig.l1(2).issueLoad(1, A));
    rig.run();
    ASSERT_TRUE(rig.l1(1).lineCached(lineOf(A)));
    ASSERT_TRUE(rig.l1(2).lineCached(lineOf(A)));

    rig.l1(0).requestWritePermission(lineOf(A));
    rig.run();
    EXPECT_TRUE(rig.l1(0).hasWritePermission(lineOf(A)));
    EXPECT_FALSE(rig.l1(1).lineCached(lineOf(A)));
    EXPECT_FALSE(rig.l1(2).lineCached(lineOf(A)));
    EXPECT_GE(rig.core(1).invalidations.size(), 1u);
    EXPECT_GE(rig.core(2).invalidations.size(), 1u);
}

TEST(Protocol, UpgradeKeepsLocalData)
{
    ProtocolRig rig(2);
    rig.memory.poke(A, 55);
    // Two sharers so core 0 holds S (not E).
    ASSERT_TRUE(rig.l1(0).issueLoad(1, A));
    ASSERT_TRUE(rig.l1(1).issueLoad(1, A));
    rig.run();
    rig.l1(0).requestWritePermission(lineOf(A));
    rig.run();
    ASSERT_TRUE(rig.l1(0).hasWritePermission(lineOf(A)));
    // The upgraded copy retained the data.
    const Version v = rig.l1(0).performStore(A + 8, 9);
    EXPECT_EQ(v, 1u);
    std::uint64_t val = 0;
    bool writable = false;
    ASSERT_TRUE(rig.l1(0).peekWord(A, val, writable));
    EXPECT_EQ(val, 55u);
}

TEST(Protocol, LockdownNackPutsDirectoryInWritersBlock)
{
    ProtocolRig rig(3);
    rig.memory.poke(A, 7);
    // Core 1 caches the line and goes into lockdown.
    ASSERT_TRUE(rig.l1(1).issueLoad(1, A));
    rig.run();
    rig.core(1).invAnswer = InvResponse::Nack;
    rig.core(1).lockHeld = true;

    // Core 0 wants to write: the invalidation is Nacked.
    rig.l1(0).requestWritePermission(lineOf(A));
    rig.run();
    EXPECT_FALSE(rig.l1(0).hasWritePermission(lineOf(A)))
        << "write completed despite a lockdown";
    const BankId home = homeBank(lineOf(A), 3);
    EXPECT_TRUE(rig.llc(home).inWritersBlock(lineOf(A)));
    EXPECT_TRUE(rig.l1(0).isWriteBlocked(lineOf(A)))
        << "writer never received the BlockedHint";

    // Reads are still served (uncacheable tear-off, old value).
    rig.core(2).ordered = true;
    ASSERT_TRUE(rig.l1(2).issueLoad(5, A));
    rig.run();
    ASSERT_EQ(rig.core(2).responses.size(), 1u);
    EXPECT_EQ(rig.core(2).responses[0].value, 7u);
    EXPECT_EQ(rig.core(2).responses[0].src, LoadSource::TearOff);
    EXPECT_FALSE(rig.l1(2).lineCached(lineOf(A)));

    // Lifting the lockdown releases the redirected Ack and the
    // write completes (Figure 3.B steps 4-5).
    rig.core(1).invAnswer = InvResponse::Ack;
    rig.core(1).lockHeld = false;
    rig.l1(1).lockdownLifted(lineOf(A));
    rig.run();
    EXPECT_TRUE(rig.l1(0).hasWritePermission(lineOf(A)));
    EXPECT_FALSE(rig.llc(home).inWritersBlock(lineOf(A)));
}

TEST(Protocol, UnorderedLoadCannotUseTearOff)
{
    ProtocolRig rig(3);
    ASSERT_TRUE(rig.l1(1).issueLoad(1, A));
    rig.run();
    rig.core(1).invAnswer = InvResponse::Nack;
    rig.core(1).lockHeld = true;
    rig.l1(0).requestWritePermission(lineOf(A));
    rig.run();

    // An *unordered* load on core 2 gets a tear-off it may not use.
    rig.core(2).ordered = false;
    ASSERT_TRUE(rig.l1(2).issueLoad(9, A));
    rig.run();
    EXPECT_TRUE(rig.core(2).responses.empty());
    ASSERT_EQ(rig.core(2).retries.size(), 1u);
    EXPECT_EQ(rig.core(2).retries[0], 9u);

    // Once ordered (it became the SoS load), the retry succeeds.
    rig.core(2).ordered = true;
    ASSERT_TRUE(rig.l1(2).issueLoad(9, A));
    rig.run();
    ASSERT_EQ(rig.core(2).responses.size(), 1u);
    EXPECT_EQ(rig.core(2).responses[0].src, LoadSource::TearOff);

    rig.core(1).lockHeld = false;
    rig.l1(1).lockdownLifted(lineOf(A));
    rig.run();
}

TEST(Protocol, OwnerNackSendsDataBothWays)
{
    // Figure 3.B with an exclusive owner: data goes to the writer
    // AND (with the Nack) to the LLC so tear-offs can be served.
    ProtocolRig rig(3);
    rig.l1(1).requestWritePermission(lineOf(A));
    rig.run();
    ASSERT_TRUE(rig.l1(1).hasWritePermission(lineOf(A)));
    rig.l1(1).performStore(A, 42);
    rig.core(1).invAnswer = InvResponse::Nack;
    rig.core(1).lockHeld = true;

    rig.l1(0).requestWritePermission(lineOf(A));
    rig.run();
    EXPECT_FALSE(rig.l1(0).hasWritePermission(lineOf(A)));
    const BankId home = homeBank(lineOf(A), 3);
    ASSERT_TRUE(rig.llc(home).inWritersBlock(lineOf(A)));

    // Tear-off readers see the owner's last value through the LLC.
    ASSERT_TRUE(rig.l1(2).issueLoad(1, A));
    rig.run();
    ASSERT_EQ(rig.core(2).responses.size(), 1u);
    EXPECT_EQ(rig.core(2).responses[0].value, 42u);

    rig.core(1).lockHeld = false;
    rig.l1(1).lockdownLifted(lineOf(A));
    rig.run();
    EXPECT_TRUE(rig.l1(0).hasWritePermission(lineOf(A)));
}

TEST(Protocol, SecondWriterDefersBehindWritersBlock)
{
    ProtocolRig rig(4);
    ASSERT_TRUE(rig.l1(1).issueLoad(1, A));
    rig.run();
    rig.core(1).invAnswer = InvResponse::Nack;
    rig.core(1).lockHeld = true;
    rig.l1(0).requestWritePermission(lineOf(A));
    rig.run();
    // Core 3 also wants to write: deferred + hinted.
    rig.l1(3).requestWritePermission(lineOf(A));
    rig.run();
    EXPECT_FALSE(rig.l1(3).hasWritePermission(lineOf(A)));
    EXPECT_TRUE(rig.l1(3).isWriteBlocked(lineOf(A)));

    rig.core(1).lockHeld = false;
    rig.core(1).invAnswer = InvResponse::Ack;
    rig.l1(1).lockdownLifted(lineOf(A));
    rig.run();
    // First writer completes, then the second (invalidating the
    // first).
    EXPECT_TRUE(rig.l1(3).hasWritePermission(lineOf(A)));
    EXPECT_FALSE(rig.l1(0).hasWritePermission(lineOf(A)));
}

TEST(Protocol, SilentEvictionStillReachableByInvalidation)
{
    // Fill many lines mapping to one L1 set so a shared line evicts
    // silently; the directory must still reach the core's LQ.
    MemSystemConfig cfg;
    cfg.l1Size = 1024;
    cfg.l2Size = 2048; // 2KB, 8-way: 4 sets
    ProtocolRig rig(2, cfg);
    // Flood core 0 with shared lines until the first one is
    // silently evicted (the private L2 holds only 32 lines).
    // Core 1 shares every line so core 0 holds them in S state —
    // S lines are the ones that evict silently (Section 3.8).
    std::vector<Addr> lines;
    for (int i = 0; i < 80; ++i)
        lines.push_back(A + Addr(i) * lineBytes);
    InstSeqNum seq = 1;
    for (Addr a : lines) {
        ASSERT_TRUE(rig.l1(1).issueLoad(seq, a));
        rig.run(150);
        ASSERT_TRUE(rig.l1(0).issueLoad(seq++, a));
        rig.run(150);
        if (!rig.l1(0).lineCached(lineOf(lines[0])))
            break;
    }
    // The first line must have been silently evicted.
    EXPECT_FALSE(rig.l1(0).lineCached(lineOf(lines[0])));
    const std::uint64_t silent =
        rig.stats.counterValue("l1.0.silentEvictions");
    EXPECT_GT(silent, 0u);

    // A writer invalidates: the stale sharer is still queried.
    rig.l1(1).requestWritePermission(lineOf(lines[0]));
    rig.run();
    EXPECT_TRUE(rig.l1(1).hasWritePermission(lineOf(lines[0])));
    EXPECT_GE(rig.core(0).invalidations.size(), 1u);
}

TEST(Protocol, LlcEvictionRecallsAndParksOnLockdown)
{
    MemSystemConfig cfg;
    cfg.llcBankSize = 2048; // 4 sets x 8 ways per bank
    cfg.llcEvictionBuffer = 4;
    ProtocolRig rig(2, cfg);

    // Cache a line and lock it down.
    ASSERT_TRUE(rig.l1(0).issueLoad(1, A));
    rig.run();
    rig.core(0).invAnswer = InvResponse::Nack;
    rig.core(0).lockHeld = true;

    // Thrash the home bank set of A until A's entry is recalled.
    // A's home is bank (A>>6)%2; same-bank same-set stride:
    // bank stride 128B, set stride 4*64*2 = 512B.
    const BankId home = homeBank(lineOf(A), 2);
    InstSeqNum seq = 100;
    std::vector<Addr> fill;
    for (int i = 1; i <= 48; ++i)
        fill.push_back(A + Addr(i) * 512);
    for (Addr a : fill) {
        ASSERT_EQ(homeBank(lineOf(a), 2), home);
        ASSERT_TRUE(rig.l1(1).issueLoad(seq++, a));
        rig.run(120);
    }
    // The recall hit the lockdown: entry parked in the eviction
    // buffer (WBEvict) until the release.
    EXPECT_GT(rig.llc(home).evictionBufferUse(), 0u);
    EXPECT_GE(rig.core(0).invalidations.size(), 1u);

    rig.core(0).lockHeld = false;
    rig.core(0).invAnswer = InvResponse::Ack;
    rig.l1(0).lockdownLifted(lineOf(A));
    rig.run(2000);
    EXPECT_EQ(rig.llc(home).evictionBufferUse(), 0u);
}

TEST(Protocol, WritebackDirtyLineReachesMemory)
{
    MemSystemConfig cfg;
    cfg.l1Size = 512;
    cfg.l2Size = 1024; // tiny: forces private evictions
    ProtocolRig rig(2, cfg);
    rig.l1(0).requestWritePermission(lineOf(A));
    rig.run();
    rig.l1(0).performStore(A, 99);
    // Flood the private cache (16 lines) until A writes back.
    InstSeqNum seq = 1;
    for (int i = 1; i <= 80 && rig.l1(0).lineCached(lineOf(A));
         ++i) {
        ASSERT_TRUE(rig.l1(0).issueLoad(seq++,
                                        A + Addr(i) * lineBytes));
        rig.run(200);
    }
    EXPECT_FALSE(rig.l1(0).lineCached(lineOf(A)));
    // The dirty data survives; a reader sees it via the LLC.
    ASSERT_TRUE(rig.l1(1).issueLoad(1, A));
    rig.run();
    ASSERT_EQ(rig.core(1).responses.size(), 1u);
    EXPECT_EQ(rig.core(1).responses[0].value, 99u);
}

TEST(Protocol, AtomicReadModifyWrite)
{
    ProtocolRig rig(2);
    rig.memory.poke(A, 10);
    rig.l1(0).requestWritePermission(lineOf(A));
    rig.run();
    auto [old_v, old_ver] = rig.l1(0).performAtomic(
        A, [](std::uint64_t v) { return v + 5; });
    EXPECT_EQ(old_v, 10u);
    EXPECT_EQ(old_ver, 0u);
    std::uint64_t val = 0;
    bool writable = false;
    ASSERT_TRUE(rig.l1(0).peekWord(A, val, writable));
    EXPECT_EQ(val, 15u);
    EXPECT_TRUE(writable);
}

} // namespace wb

/** @file Unit tests for the mesh and ideal interconnects. */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "network/ideal.hh"
#include "network/mesh.hh"
#include "sim/stats.hh"

namespace wb
{

namespace
{

struct Rx
{
    Tick when;
    int src;
};

MsgPtr
mkMsg(int src, int dst, VNet vnet = VNet::Request,
      unsigned flits = 1)
{
    auto m = std::make_shared<NetMsg>();
    m->src = src;
    m->dst = dst;
    m->vnet = vnet;
    m->flits = flits;
    return m;
}

} // namespace

TEST(Mesh, HopCount)
{
    EventQueue eq;
    StatRegistry st;
    MeshConfig cfg;
    MeshNetwork net("net", &eq, &st, cfg);
    EXPECT_EQ(net.hops(0, 0), 0u);
    EXPECT_EQ(net.hops(0, 3), 3u);   // same row
    EXPECT_EQ(net.hops(0, 12), 3u);  // same column
    EXPECT_EQ(net.hops(0, 15), 6u);  // opposite corner
    EXPECT_EQ(net.hops(5, 10), 2u);
}

TEST(Mesh, LatencyMatchesHops)
{
    EventQueue eq;
    StatRegistry st;
    MeshConfig cfg; // 6-cycle hops
    MeshNetwork net("net", &eq, &st, cfg);
    std::vector<Rx> got(16, {0, -1});
    for (int n = 0; n < 16; ++n)
        net.registerNode(n, [&got, n, &eq](MsgPtr m) {
            got[std::size_t(n)] = {eq.now(), m->src};
        });
    // Disjoint routes so contention does not skew the latency.
    net.send(mkMsg(0, 15), 0);
    net.send(mkMsg(5, 4), 0);
    net.drain(eq);
    EXPECT_EQ(got[15].when, 6u * 6u);
    EXPECT_EQ(got[4].when, 6u);
}

TEST(Mesh, LocalDeliveryIsCheap)
{
    EventQueue eq;
    StatRegistry st;
    MeshNetwork net("net", &eq, &st, MeshConfig{});
    Tick when = 0;
    net.registerNode(3, [&](MsgPtr) { when = eq.now(); });
    net.send(mkMsg(3, 3), 0);
    net.drain(eq);
    EXPECT_EQ(when, 1u);
    // Local transfers cost no link traffic.
    EXPECT_EQ(net.flitHops(), 0u);
}

TEST(Mesh, ContentionSerialisesLink)
{
    EventQueue eq;
    StatRegistry st;
    MeshNetwork net("net", &eq, &st, MeshConfig{});
    std::vector<Tick> arrivals;
    net.registerNode(1, [&](MsgPtr) {
        arrivals.push_back(eq.now());
    });
    // Two 5-flit packets on the same link, same vnet: the second
    // serialises behind the first.
    net.send(mkMsg(0, 1, VNet::Request, 5), 0);
    net.send(mkMsg(0, 1, VNet::Request, 5), 0);
    net.drain(eq);
    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_EQ(arrivals[0], 6u);
    EXPECT_EQ(arrivals[1], 6u + 5u);
}

TEST(Mesh, VirtualNetworksDoNotContend)
{
    EventQueue eq;
    StatRegistry st;
    MeshNetwork net("net", &eq, &st, MeshConfig{});
    std::vector<Tick> arrivals;
    net.registerNode(1, [&](MsgPtr) {
        arrivals.push_back(eq.now());
    });
    net.send(mkMsg(0, 1, VNet::Request, 5), 0);
    net.send(mkMsg(0, 1, VNet::Response, 5), 0);
    net.drain(eq);
    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_EQ(arrivals[0], 6u);
    EXPECT_EQ(arrivals[1], 6u); // separate vnet, no serialisation
}

TEST(Mesh, TrafficAccounting)
{
    EventQueue eq;
    StatRegistry st;
    MeshNetwork net("net", &eq, &st, MeshConfig{});
    net.registerNode(15, [](MsgPtr) {});
    net.send(mkMsg(0, 15, VNet::Response, 5), 0);
    net.drain(eq);
    EXPECT_EQ(net.messages(), 1u);
    EXPECT_EQ(net.flitHops(), 5u * 6u);
}

TEST(Ideal, JitterReordersMessages)
{
    EventQueue eq;
    StatRegistry st;
    IdealNetworkConfig cfg;
    cfg.numNodes = 2;
    cfg.baseLatency = 5;
    cfg.jitter = 20;
    cfg.seed = 3;
    IdealNetwork net("net", &eq, &st, cfg);
    std::vector<int> order;
    net.registerNode(1, [&](MsgPtr m) {
        order.push_back(int(m->flits));
    });
    // Send 20 messages tagged 1..20 (via flits); with jitter, the
    // arrival order must differ from the send order at least once.
    for (unsigned i = 1; i <= 20; ++i)
        net.send(mkMsg(0, 1, VNet::Request, i), 0);
    net.drain(eq);
    ASSERT_EQ(order.size(), 20u);
    bool reordered = false;
    for (std::size_t i = 1; i < order.size(); ++i)
        if (order[i] < order[i - 1])
            reordered = true;
    EXPECT_TRUE(reordered) << "jittered network never reordered";
}

// While jitter delivers a batch out of order, the ledger lists
// exactly the undelivered messages, in ascending id order.
TEST(Ideal, LedgerListsUndeliveredIdsInOrder)
{
    EventQueue eq;
    StatRegistry st;
    IdealNetworkConfig cfg;
    cfg.numNodes = 2;
    cfg.baseLatency = 5;
    cfg.jitter = 20;
    cfg.seed = 3;
    IdealNetwork net("net", &eq, &st, cfg);
    std::set<std::uint64_t> delivered; // seqs
    net.registerNode(1, [&](MsgPtr m) { delivered.insert(m->seq); });
    const std::uint64_t sent = 20;
    for (std::uint64_t i = 0; i < sent; ++i)
        net.send(mkMsg(0, 1), 0);
    net.drain(eq, 15);

    // Node 1's n-th message has id (1 << 48) | n, and it is node 0's
    // n-th send, seq n.
    std::vector<std::uint64_t> missing; // seqs
    for (std::uint64_t seq = 1; seq <= sent; ++seq)
        if (!delivered.count(seq))
            missing.push_back(seq);
    ASSERT_FALSE(missing.empty());
    ASSERT_FALSE(delivered.empty());
    ASSERT_LT(missing.front(), *delivered.rbegin())
        << "the delivered part must overtake an undelivered message";
    std::vector<std::uint64_t> want;
    for (std::uint64_t seq : missing)
        want.push_back((std::uint64_t(1) << 48) | seq);
    std::vector<std::uint64_t> ids;
    for (const Network::InFlightMsg &m : net.undelivered())
        ids.push_back(m.id);
    EXPECT_EQ(ids, want);
    EXPECT_EQ(net.inFlight(), want.size());

    net.drain(eq);
    EXPECT_EQ(delivered.size(), sent);
    EXPECT_TRUE(net.undelivered().empty());
    EXPECT_EQ(net.inFlight(), 0u);
}

// A dropped message stays in the ledger. Without recovery nothing
// will deliver it, so it is not in flight; with recovery armed a
// dropped response is in flight until its retransmission lands and
// retires the entry.
TEST(Ideal, DroppedMessagesInTheLedger)
{
    FaultConfig fc;
    fc.dropProb = 1.0;
    fc.dropMax = 2; // the first two sends
    for (const bool armed : {false, true}) {
        SCOPED_TRACE(armed ? "recovery" : "no recovery");
        EventQueue eq;
        StatRegistry st;
        IdealNetworkConfig cfg;
        cfg.numNodes = 2;
        IdealNetwork net("net", &eq, &st, cfg);
        FaultInjector faults(fc);
        net.setFaultInjector(&faults);
        RecoveryConfig rc;
        rc.enabled = armed;
        net.setRecovery(rc);
        int delivered = 0;
        net.registerNode(1, [&](MsgPtr) { ++delivered; });
        for (int i = 0; i < 4; ++i)
            net.send(mkMsg(0, 1, VNet::Response), 0);
        net.commitSends();

        const auto ledger = net.undelivered();
        ASSERT_EQ(ledger.size(), 4u);
        for (std::size_t i = 0; i < ledger.size(); ++i) {
            EXPECT_EQ(ledger[i].dropped, i < 2);
            EXPECT_EQ(ledger[i].retxPending, armed && i < 2);
        }
        EXPECT_EQ(net.inFlight(), armed ? 4u : 2u);

        net.drain(eq);
        if (armed) {
            EXPECT_EQ(delivered, 4);
            EXPECT_TRUE(net.undelivered().empty());
            EXPECT_EQ(net.retransmits(), 2u);
            EXPECT_EQ(net.recovered(), 2u);
        } else {
            EXPECT_EQ(delivered, 2);
            const auto left = net.undelivered();
            ASSERT_EQ(left.size(), 2u);
            EXPECT_EQ(left[0].id, ledger[0].id);
            EXPECT_EQ(left[1].id, ledger[1].id);
        }
        EXPECT_EQ(net.inFlight(), 0u);
    }
}

// A handler that throws (a panic) unwinds out of its tick with that
// tick's later arrivals still undelivered: the ledger must keep
// listing them, as the crash report and the leak count read it.
TEST(Ideal, ThrowingHandlerLeavesTheTicksLaterArrivalsInTheLedger)
{
    EventQueue eq;
    StatRegistry st;
    IdealNetworkConfig cfg;
    cfg.numNodes = 2;
    cfg.baseLatency = 5;
    IdealNetwork net("net", &eq, &st, cfg);
    int calls = 0;
    net.registerNode(1, [&](MsgPtr) {
        if (++calls == 1)
            throw std::runtime_error("handler panic");
    });
    for (int i = 0; i < 3; ++i)
        net.send(mkMsg(0, 1, VNet::Response), 0);
    EXPECT_THROW(net.drain(eq), std::runtime_error);
    EXPECT_EQ(calls, 1);

    // Node 1's n-th message has id (1 << 48) | n; the first was
    // handed to the handler, so only the second and third are left.
    const auto left = net.undelivered();
    ASSERT_EQ(left.size(), 2u);
    for (std::size_t i = 0; i < left.size(); ++i) {
        EXPECT_EQ(left[i].id, (std::uint64_t(1) << 48) | (i + 2));
        EXPECT_EQ(left[i].src, 0);
        EXPECT_EQ(left[i].dst, 1);
        EXPECT_EQ(left[i].vnet, int(VNet::Response));
        EXPECT_EQ(left[i].injectedAt, 0u);
        EXPECT_FALSE(left[i].dropped);
    }
    EXPECT_EQ(net.undeliveredCount(), 2u);
    EXPECT_EQ(net.inFlight(), 2u);
}

TEST(Ideal, NoJitterKeepsOrder)
{
    EventQueue eq;
    StatRegistry st;
    IdealNetworkConfig cfg;
    cfg.numNodes = 2;
    cfg.jitter = 0;
    IdealNetwork net("net", &eq, &st, cfg);
    std::vector<int> order;
    net.registerNode(1, [&](MsgPtr m) {
        order.push_back(int(m->flits));
    });
    for (unsigned i = 1; i <= 10; ++i)
        net.send(mkMsg(0, 1, VNet::Request, i), 0);
    net.drain(eq);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], int(i) + 1);
}

} // namespace wb

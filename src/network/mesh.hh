/**
 * @file
 * Packet-level 2D mesh with deterministic X-Y routing (Table 6).
 *
 * Contention model: store-and-forward at packet granularity. Each
 * directed link has one occupancy horizon per virtual network; a
 * packet arriving at a router departs on its output link no earlier
 * than the link is free, holds the link for its flit count, and
 * reaches the next router after the switch-to-switch latency. This
 * approximates a wormhole router closely enough for traffic and
 * queueing-delay trends while remaining fully deterministic.
 */

#ifndef WB_NETWORK_MESH_HH
#define WB_NETWORK_MESH_HH

#include <vector>

#include "network/network.hh"

namespace wb
{

struct MeshConfig
{
    int width = 4;             //!< routers per row
    int height = 4;            //!< routers per column
    Tick hopLatency = 6;       //!< switch-to-switch time (cycles)
    Tick localLatency = 1;     //!< node-internal delivery

    /** Size to the smallest near-square mesh holding @p nodes. */
    void
    fit(int nodes)
    {
        width = 1;
        while (width * width < nodes)
            ++width;
        height = (nodes + width - 1) / width;
    }
};

/** 2D mesh, X-then-Y dimension-ordered routing. */
class MeshNetwork : public Network
{
  public:
    MeshNetwork(std::string name, EventQueue *eq,
                StatRegistry *stats, const MeshConfig &cfg);

    /** Number of hops between two nodes (for tests). */
    unsigned hops(int src, int dst) const;

    /** Conservative lookahead: one switch-to-switch hop is the
     *  cheapest any cross-node message can travel. */
    Tick lookahead() const override { return _cfg.hopLatency; }
    Tick localLatency() const override { return _cfg.localLatency; }

  protected:
    Tick routeArrival(Tick snow, const NetMsg &msg) override;

    unsigned
    hopsOf(const NetMsg &msg) const override
    {
        return hops(msg.src, msg.dst);
    }

    void
    serializeExtra(ByteWriter &w) const override
    {
        w.u64(_linkFree.size());
        for (Tick t : _linkFree)
            w.u64(t);
    }

  private:
    /** Directed links: 4 per router (E,W,N,S), per vnet. */
    enum Dir { East = 0, West = 1, North = 2, South = 3 };

    std::size_t
    linkIndex(int router, Dir d, VNet v) const
    {
        return (std::size_t(router) * 4 + unsigned(d)) * numVNets +
               unsigned(int(v));
    }

    int xOf(int node) const { return node % _cfg.width; }
    int yOf(int node) const { return node / _cfg.width; }

    MeshConfig _cfg;
    /** Tick at which each directed link becomes free again. */
    std::vector<Tick> _linkFree;
    Counter &_linkWaitCycles;
};

} // namespace wb

#endif // WB_NETWORK_MESH_HH

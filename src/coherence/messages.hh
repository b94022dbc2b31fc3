/**
 * @file
 * Coherence protocol messages.
 *
 * The protocol is a GEMS-style 3-hop MESI directory protocol with
 * Unblock-based serialisation, extended with the WritersBlock
 * transactions of the paper:
 *
 *  - InvNack (+Data when the invalidated copy was exclusive): a
 *    locked-down core refuses to acknowledge an invalidation and
 *    instead notifies the directory (Section 3.3, Figure 3.B).
 *  - AckRelease: when the lockdown is lifted the core notifies the
 *    home directory, which redirects a RedirAck to the writer.
 *  - UData: an uncacheable tear-off copy served to reads that find
 *    the directory in WritersBlock (Section 3.4) or to SoS loads
 *    bypassing blocked resources (Section 3.5).
 *  - BlockedHint: tells a writer's L1 that its write is blocked so
 *    that SoS loads stop piggybacking on its MSHR (Section 3.5.2).
 */

#ifndef WB_COHERENCE_MESSAGES_HH
#define WB_COHERENCE_MESSAGES_HH

#include <cstdint>

#include "mem/addr.hh"
#include "mem/data_block.hh"
#include "network/network.hh"

namespace wb
{

enum class CohType : std::uint8_t
{
    // Requests: L1 -> home directory (VNet::Request)
    GetS,       //!< read, cacheable
    GetX,       //!< write, needs data
    Upgrade,    //!< write, requestor believes it has an S copy
    GetU,       //!< read, uncacheable tear-off (SoS bypass)
    PutE,       //!< eviction of a clean exclusive line
    PutM,       //!< eviction of a dirty line (carries data)
    PutS,       //!< non-silent eviction of a shared line

    // Forwards: directory -> L1 (VNet::Forward)
    Inv,        //!< invalidate an S copy on behalf of a writer
    Recall,     //!< invalidate for LLC/directory eviction
    FwdGetS,    //!< owner must send Data to reader + CopyData home
    FwdGetX,    //!< owner must send DataX to writer, invalidate
    FwdGetU,    //!< owner must send UData to reader, keep state

    // Responses (VNet::Response)
    Data,        //!< cacheable read data (dir or owner -> reader)
    DataX,       //!< write grant with data; ackCount acks to collect
    UpgradeAck,  //!< write grant without data; ackCount to collect
    InvAck,      //!< sharer -> writer: invalidation done
    InvNack,     //!< locked-down core -> dir (+Data if was owner)
    RecallAck,   //!< core -> dir: recall done (+Data if was owner)
    AckRelease,  //!< core -> dir: lockdown lifted, ack now valid
    RedirAck,    //!< dir -> writer: redirected (released) ack
    CopyData,    //!< owner -> dir: data copy on FwdGetS downgrade
    Unblock,     //!< requestor -> dir: transaction complete
    UData,       //!< uncacheable tear-off data
    BlockedHint, //!< dir -> writer L1: your write hit a WritersBlock
    WBAck,       //!< dir -> evictor: writeback accepted
    WBStale,     //!< dir -> evictor: writeback raced with a forward
};

/** @return a static name for tracing. */
const char *cohTypeName(CohType t);

/** @return true if the message is routed to the home directory. */
bool cohToDirectory(CohType t);

/** @return the virtual network a message type travels on. */
VNet cohVNet(CohType t);

/** One coherence message. Unused fields stay defaulted. */
struct CohMsg : NetMsg
{
    CohType type = CohType::GetS;
    Addr line = 0;

    /** Original requestor node (forwards carry it along). */
    int requestor = -1;

    /** DataX/UpgradeAck: invalidation acks the writer must collect. */
    int ackCount = 0;

    /** Data: exclusive (E) grant. */
    bool exclusive = false;

    /** Directory transaction id echoed by Inv/Recall responses. */
    std::uint64_t txnId = 0;

    /** CopyData: false when served from a writeback buffer (owner
     *  no longer retains the line). */
    bool ownerRetained = true;

    /** UData: true when answering a GetU (SoS bypass) rather than a
     *  cacheable GetS that found a WritersBlock. */
    bool fromGetU = false;

    /** Recovery: 0 for a first issue, else the ARQ attempt number of
     *  this re-issued request (diagnostics / traces). */
    int retry = 0;

    bool hasData = false;
    bool dirty = false;
    DataBlock data{};

    const char *kind() const override { return cohTypeName(type); }
    std::uint64_t debugAddr() const override { return line; }
};

/** Allocate a coherence message with routing fields filled in. */
MsgPtr makeCohMsg(CohType t, Addr line, int src, int dst);

/** Heap copy of @p m (deferred-message bookkeeping). */
MsgPtr cloneCohMsg(const CohMsg &m);

/** Control messages are 1 flit; data messages 5 flits (Table 6). */
constexpr unsigned ctrlFlits = 1;
constexpr unsigned dataFlits = 5;

} // namespace wb

#endif // WB_COHERENCE_MESSAGES_HH

#include "coherence/messages.hh"

#include <memory>

namespace wb
{

const char *
cohTypeName(CohType t)
{
    switch (t) {
      case CohType::GetS: return "GetS";
      case CohType::GetX: return "GetX";
      case CohType::Upgrade: return "Upgrade";
      case CohType::GetU: return "GetU";
      case CohType::PutE: return "PutE";
      case CohType::PutM: return "PutM";
      case CohType::PutS: return "PutS";
      case CohType::Inv: return "Inv";
      case CohType::Recall: return "Recall";
      case CohType::FwdGetS: return "FwdGetS";
      case CohType::FwdGetX: return "FwdGetX";
      case CohType::FwdGetU: return "FwdGetU";
      case CohType::Data: return "Data";
      case CohType::DataX: return "DataX";
      case CohType::UpgradeAck: return "UpgradeAck";
      case CohType::InvAck: return "InvAck";
      case CohType::InvNack: return "InvNack";
      case CohType::RecallAck: return "RecallAck";
      case CohType::AckRelease: return "AckRelease";
      case CohType::RedirAck: return "RedirAck";
      case CohType::CopyData: return "CopyData";
      case CohType::Unblock: return "Unblock";
      case CohType::UData: return "UData";
      case CohType::BlockedHint: return "BlockedHint";
      case CohType::WBAck: return "WBAck";
      case CohType::WBStale: return "WBStale";
    }
    return "?";
}

bool
cohToDirectory(CohType t)
{
    switch (t) {
      case CohType::GetS:
      case CohType::GetX:
      case CohType::Upgrade:
      case CohType::GetU:
      case CohType::PutE:
      case CohType::PutM:
      case CohType::PutS:
      case CohType::InvNack:
      case CohType::RecallAck:
      case CohType::AckRelease:
      case CohType::CopyData:
      case CohType::Unblock:
        return true;
      default:
        return false;
    }
}

VNet
cohVNet(CohType t)
{
    switch (t) {
      case CohType::GetS:
      case CohType::GetX:
      case CohType::Upgrade:
      case CohType::GetU:
      case CohType::PutE:
      case CohType::PutM:
      case CohType::PutS:
        return VNet::Request;
      case CohType::Inv:
      case CohType::Recall:
      case CohType::FwdGetS:
      case CohType::FwdGetX:
      case CohType::FwdGetU:
        return VNet::Forward;
      default:
        return VNet::Response;
    }
}

MsgPtr
makeCohMsg(CohType t, Addr line, int src, int dst)
{
    // make_shared: the control block and the message share one
    // allocation.
    auto msg = std::make_shared<CohMsg>();
    msg->type = t;
    msg->line = line;
    msg->src = src;
    msg->dst = dst;
    msg->vnet = cohVNet(t);
    msg->flits = ctrlFlits;
    return msg;
}

MsgPtr
cloneCohMsg(const CohMsg &m)
{
    return std::make_shared<CohMsg>(m);
}

} // namespace wb

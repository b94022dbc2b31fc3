#include "core/config.hh"

namespace wb
{

const char *
commitModeName(CommitMode m)
{
    switch (m) {
      case CommitMode::InOrder: return "in-order";
      case CommitMode::OooSafe: return "ooo-safe";
      case CommitMode::OooWB: return "ooo-writersblock";
      case CommitMode::OooUnsafe: return "ooo-unsafe";
    }
    return "?";
}

const char *
coreClassName(CoreClass c)
{
    switch (c) {
      case CoreClass::SLM: return "SLM";
      case CoreClass::NHM: return "NHM";
      case CoreClass::HSW: return "HSW";
    }
    return "?";
}

bool
parseCommitMode(const std::string &s, CommitMode &out)
{
    if (s == "in-order")
        out = CommitMode::InOrder;
    else if (s == "ooo-safe")
        out = CommitMode::OooSafe;
    else if (s == "ooo-wb" || s == "ooo-writersblock")
        out = CommitMode::OooWB;
    else if (s == "ooo-unsafe")
        out = CommitMode::OooUnsafe;
    else
        return false;
    return true;
}

bool
parseCoreClass(const std::string &s, CoreClass &out)
{
    if (s == "SLM" || s == "slm")
        out = CoreClass::SLM;
    else if (s == "NHM" || s == "nhm")
        out = CoreClass::NHM;
    else if (s == "HSW" || s == "hsw")
        out = CoreClass::HSW;
    else
        return false;
    return true;
}

CoreConfig
makeCoreConfig(CoreClass cls)
{
    CoreConfig cfg;
    switch (cls) {
      case CoreClass::SLM:
        cfg.iqSize = 16;
        cfg.robSize = 32;
        cfg.lqSize = 10;
        cfg.sqSize = 16;
        cfg.sbSize = 16;
        break;
      case CoreClass::NHM:
        cfg.iqSize = 32;
        cfg.robSize = 128;
        cfg.lqSize = 48;
        cfg.sqSize = 36;
        cfg.sbSize = 36;
        break;
      case CoreClass::HSW:
        cfg.iqSize = 60;
        cfg.robSize = 192;
        cfg.lqSize = 72;
        cfg.sqSize = 42;
        cfg.sbSize = 42;
        break;
    }
    return cfg;
}

} // namespace wb

/**
 * @file
 * Memory-system configuration (Table 6 defaults).
 */

#ifndef WB_COHERENCE_CONFIG_HH
#define WB_COHERENCE_CONFIG_HH

#include <cstdint>
#include <limits>

#include "sim/types.hh"

namespace wb
{

/** The directory's sharer set: a full map, one bit per core. */
using SharerSet = std::uint32_t;

/** Most cores the sharer set can name. SystemConfig::validate
 *  refuses larger machines. */
constexpr int maxCores = std::numeric_limits<SharerSet>::digits;

struct MemSystemConfig
{
    // Private hierarchy (per core)
    std::uint64_t l1Size = 32 * 1024;
    unsigned l1Assoc = 8;
    Tick l1HitLatency = 4;
    std::uint64_t l2Size = 128 * 1024;
    unsigned l2Assoc = 8;
    Tick l2HitLatency = 12;
    unsigned numMshrs = 16;      //!< plus one reserved for SoS reads
    /** Next-line prefetch on demand read misses (uses spare MSHRs,
     *  never the reserved SoS entry). Off by default. */
    bool prefetchNextLine = false;
    unsigned wbBufferSize = 8;   //!< private writeback buffer entries

    // Shared LLC (per bank)
    std::uint64_t llcBankSize = 1024 * 1024;
    unsigned llcAssoc = 8;
    /** Number of address-interleaved banks (set by the System). */
    unsigned numBanks = 16;
    Tick llcHitLatency = 35;
    unsigned llcEvictionBuffer = 16; //!< directory eviction buffer

    // Memory
    Tick memLatency = 160;

    /**
     * Shared-line eviction policy (Section 3.8). Silent evictions
     * leave the core on the sharer list (later invalidations still
     * query its LQ); non-silent PutS removes it, which in a
     * squash-and-re-execute core must squash M-speculative loads,
     * and in a lockdown core falls back to silent when a lockdown
     * is active. The paper's baseline uses silent evictions (9.6%
     * lower traffic).
     */
    bool silentSharedEvictions = true;
};

} // namespace wb

#endif // WB_COHERENCE_CONFIG_HH

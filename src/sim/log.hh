/**
 * @file
 * Lightweight trace/debug logging with per-component flags, in the
 * spirit of gem5's DPRINTF. Disabled components cost one branch.
 *
 * Thread-safety contract: the trace mask is per-System state
 * (ObsConfig::trace), handed by the System to each component it
 * builds, so concurrent wb::System instances (one per campaign
 * worker thread) trace independently. The only process-global
 * mutable state in the simulator is StderrGate's mutex and status
 * line below, which guard the process's one stderr. Everything else
 * is per-instance: StatRegistry and EventQueue are owned by their
 * System (and are NOT internally synchronised — never share a
 * System across threads), and Rng holds its state by value with no
 * statics. Trace lines go to stderr through StderrGate, one gated
 * write per line, so lines from concurrent systems may interleave
 * but never tear. The same rule covers watchdog diagnostics:
 * System::dumpStateToStderr() formats into a private buffer first —
 * never write iostream manipulators to std::cerr from simulator
 * code, they mutate the shared stream's format flags.
 */

#ifndef WB_SIM_LOG_HH
#define WB_SIM_LOG_HH

#include <cstdarg>
#include <cstdio>
#include <string>

#include "sim/types.hh"

namespace wb
{

/** Trace component categories: the bits of ObsConfig::trace. */
enum class LogFlag : unsigned
{
    Core = 1u << 0,
    Cache = 1u << 1,
    Directory = 1u << 2,
    Lockdown = 1u << 3,
    Checker = 1u << 4,
};

/** printf-style trace line on stderr, prefixed with tick and unit
 *  name. */
void traceLine(Tick tick, const char *unit, const char *fmt, ...)
#ifdef __GNUC__
    __attribute__((format(printf, 3, 4)))
#endif
    ;

/**
 * Single guarded writer for shared diagnostic streams.
 *
 * During a campaign the tty progress line (a '\r'-rewritten status
 * line with no trailing newline) shares stderr with worker watchdog
 * dumps and trace lines. Raw fprintf from a worker would splice its
 * output into the middle of the status line. All writers go through
 * this gate instead: one process-global mutex serialises writes, and
 * a block write first erases any live status line on the same stream
 * so diagnostics always start at column 0.
 */
class StderrGate
{
  public:
    /** Atomically write a complete block (one or more newline-
     *  terminated lines), clearing a live status line first. */
    static void writeBlock(std::FILE *f, const char *s);

    /** Replace the transient status line (no trailing newline;
     *  padded and '\r'-rewritten in place). */
    static void writeStatus(std::FILE *f, const char *s);

    /** Erase the status line, if one is live on @p f. */
    static void clearStatus(std::FILE *f);
};

/**
 * Trace macro: cheap when the flag is off in the component's mask.
 * Usage: WB_TRACE(traceMask(), LogFlag::Cache, now(), "l1.3",
 *                 "fill line %lx", addr);
 */
#define WB_TRACE(mask, flag, tick, unit, ...)                         \
    do {                                                              \
        if (((mask) & unsigned(flag)) != 0)                           \
            ::wb::traceLine((tick), (unit), __VA_ARGS__);             \
    } while (0)

/**
 * Abort the simulation with a message: a simulator bug (never the
 * user's fault). Mirrors gem5's panic().
 */
[[noreturn]] void panic(const char *fmt, ...)
#ifdef __GNUC__
    __attribute__((format(printf, 1, 2)))
#endif
    ;

/** Exit with an error message caused by bad user input/config. */
[[noreturn]] void fatal(const char *fmt, ...)
#ifdef __GNUC__
    __attribute__((format(printf, 1, 2)))
#endif
    ;

} // namespace wb

#endif // WB_SIM_LOG_HH

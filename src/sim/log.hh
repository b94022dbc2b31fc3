/**
 * @file
 * Lightweight trace/debug logging with per-component flags, in the
 * spirit of gem5's DPRINTF. Disabled components cost one branch.
 *
 * Thread-safety contract: the trace mask is the simulator's only
 * process-global mutable state, and it is atomic, so concurrent
 * wb::System instances (one per campaign worker thread) are
 * data-race free as long as each System is driven from a single
 * thread. Everything else is per-instance: StatRegistry and
 * EventQueue are owned by their System (and are NOT internally
 * synchronised — never share a System across threads), and Rng
 * holds its state by value with no statics. The trace sink is
 * thread-local: each worker thread (one System per thread) may
 * redirect its own trace output with Trace::setSink() without
 * affecting other threads; the default sink is stderr. Trace lines
 * from concurrent systems may interleave on a shared sink, but each
 * line is emitted with a single stdio call, so lines stay intact. The same rule covers
 * watchdog diagnostics: System::dumpStateToStderr() formats into a
 * private buffer first — never write iostream manipulators to
 * std::cerr from simulator code, they mutate the shared stream's
 * format flags.
 */

#ifndef WB_SIM_LOG_HH
#define WB_SIM_LOG_HH

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <string>

#include "sim/types.hh"

namespace wb
{

/** Trace component categories. */
enum class LogFlag : unsigned
{
    Core = 1u << 0,
    Cache = 1u << 1,
    Directory = 1u << 2,
    Lockdown = 1u << 3,
    Checker = 1u << 4,
};

/** Global trace configuration (off by default; atomic, so it may
 *  be toggled while campaign workers are running). */
class Trace
{
  public:
    /** Enable the given flag bits. */
    static void
    enable(unsigned flags)
    {
        mask().fetch_or(flags, std::memory_order_relaxed);
    }
    static void enable(LogFlag f) { enable(unsigned(f)); }
    static void
    disableAll()
    {
        mask().store(0, std::memory_order_relaxed);
    }

    static bool
    active(LogFlag f)
    {
        return (mask().load(std::memory_order_relaxed) &
                unsigned(f)) != 0;
    }

    /** Any flag at all — drivers use this to refuse tracing in
     *  configurations where interleaved output would be garbage. */
    static bool
    anyEnabled()
    {
        return mask().load(std::memory_order_relaxed) != 0;
    }

    /** printf-style trace line, prefixed with tick and unit name. */
    static void
    printLine(Tick tick, const char *unit, const char *fmt, ...)
#ifdef __GNUC__
        __attribute__((format(printf, 3, 4)))
#endif
        ;

    /** Redirect this thread's trace lines (nullptr = back to
     *  stderr). Thread-local, so one campaign worker's redirect
     *  never touches another's. The caller keeps ownership of the
     *  FILE and must outlive any traced work on this thread. */
    static void setSink(std::FILE *f) { sinkSlot() = f; }

    /** This thread's current trace sink (never null). */
    static std::FILE *sink()
    {
        std::FILE *f = sinkSlot();
        return f ? f : stderr;
    }

  private:
    static std::FILE *&
    sinkSlot()
    {
        thread_local std::FILE *s = nullptr;
        return s;
    }

    static std::atomic<unsigned> &
    mask()
    {
        static std::atomic<unsigned> m{0};
        return m;
    }
};

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
 * Trace macro: cheap when the flag is off.
 * Usage: WB_TRACE(flag, tick, "l1.3", "fill line %lx", addr);
 */
#define WB_TRACE(flag, tick, unit, ...)                               \
    do {                                                              \
        if (::wb::Trace::active(flag))                                \
            ::wb::Trace::printLine((tick), (unit), __VA_ARGS__);      \
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

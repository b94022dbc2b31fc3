#include "sim/log.hh"

#include <cstdarg>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace wb
{

namespace
{

std::mutex gateMutex;       //!< serialises all StderrGate writes
std::FILE *statusStream;    //!< stream holding the live status line
bool statusLive = false;    //!< an unterminated '\r' line is showing

/** Width the status line is padded/erased to. */
constexpr int statusWidth = 78;

void
clearStatusLocked(std::FILE *f)
{
    if (statusLive && statusStream == f) {
        std::fprintf(f, "\r%-*s\r", statusWidth, "");
        statusLive = false;
    }
}

std::string
vformat(const char *fmt, std::va_list ap)
{
    std::va_list ap2;
    va_copy(ap2, ap);
    int len = std::vsnprintf(nullptr, 0, fmt, ap);
    std::string out(len > 0 ? std::size_t(len) : 0, '\0');
    if (len > 0)
        std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
    va_end(ap2);
    return out;
}

} // namespace

void
StderrGate::writeBlock(std::FILE *f, const char *s)
{
    std::lock_guard<std::mutex> lk(gateMutex);
    clearStatusLocked(f);
    std::fputs(s, f);
    std::fflush(f);
}

void
StderrGate::writeStatus(std::FILE *f, const char *s)
{
    std::lock_guard<std::mutex> lk(gateMutex);
    std::fprintf(f, "\r%-*s", statusWidth, s);
    std::fflush(f);
    statusStream = f;
    statusLive = true;
}

void
StderrGate::clearStatus(std::FILE *f)
{
    std::lock_guard<std::mutex> lk(gateMutex);
    clearStatusLocked(f);
    std::fflush(f);
}

void
traceLine(Tick tick, const char *unit, const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string body = vformat(fmt, ap);
    va_end(ap);
    char head[64];
    std::snprintf(head, sizeof(head), "%10llu: %-12s ",
                  static_cast<unsigned long long>(tick), unit);
    // One gated write per line: lines from concurrent systems can
    // interleave with each other, but never tear mid-line or splice
    // into a live progress line.
    StderrGate::writeBlock(stderr, (head + body + "\n").c_str());
}

void
panic(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string body = vformat(fmt, ap);
    va_end(ap);
    // Throw instead of abort() so that tests can observe panics.
    throw std::logic_error("panic: " + body);
}

void
fatal(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string body = vformat(fmt, ap);
    va_end(ap);
    throw std::runtime_error("fatal: " + body);
}

} // namespace wb

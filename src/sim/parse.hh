/**
 * @file
 * Strict number parsing for every command-line flag, environment
 * variable and campaign-manifest key.
 *
 * std::atoi and friends silently read "16x" as 16, "huge" as 0 and
 * "-5" as 2^64 - 5. parseNumber() takes the whole string or nothing:
 * an unsigned decimal or 0x-hex integer, or a finite decimal real,
 * inside [lo, hi].
 */

#ifndef WB_SIM_PARSE_HH
#define WB_SIM_PARSE_HH

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <type_traits>

namespace wb
{

/**
 * Parse all of @p text into @p out, which must land in [lo, hi].
 * Returns "" on success, else the defect (not a number, trailing
 * garbage, out of range) for the caller to prefix with the flag name
 * or manifest line; @p out is untouched on failure.
 */
template <class T>
std::string
parseNumber(const std::string &text, std::type_identity_t<T> lo,
            std::type_identity_t<T> hi, T &out)
{
    if (text.empty() ||
        std::isspace(static_cast<unsigned char>(text[0])) ||
        (std::is_integral_v<T> && (text[0] == '-' || text[0] == '+')))
        return "'" + text + "' is not " +
               (std::is_integral_v<T> ? "an unsigned number"
                                      : "a number");
    errno = 0;
    char *end = nullptr;
    T v{};
    bool wide; // beyond what T (or, for integers, hi) can hold
    if constexpr (std::is_integral_v<T>) {
        const unsigned long long u =
            std::strtoull(text.c_str(), &end, 0);
        wide = errno == ERANGE || u > static_cast<unsigned long long>(hi);
        if (!wide)
            v = T(u);
    } else {
        v = T(std::strtod(text.c_str(), &end));
        wide = !std::isfinite(v);
    }
    if (end == text.c_str())
        return "'" + text + "' is not a number";
    if (*end != '\0')
        return "trailing garbage '" + std::string(end) +
               "' after number in '" + text + "'";
    if (wide || v < lo || v > hi) {
        std::ostringstream os;
        os << text << " out of range [" << lo << ", " << hi << "]";
        return os.str();
    }
    out = v;
    return "";
}

/** parseNumber() for command-line flag @p flag: prints the defect,
 *  for the caller to exit 64. */
template <class T>
bool
parseFlag(const char *flag, const std::string &text,
          std::type_identity_t<T> lo, std::type_identity_t<T> hi,
          T &out)
{
    const std::string err = parseNumber(text, lo, hi, out);
    if (!err.empty())
        std::fprintf(stderr, "%s: %s\n", flag, err.c_str());
    return err.empty();
}

} // namespace wb

#endif // WB_SIM_PARSE_HH

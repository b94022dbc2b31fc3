/**
 * @file
 * Benchmark profiles standing in for SPLASH-3 and PARSEC 3.0.
 *
 * We cannot run the real binaries (no x86 front-end); each profile
 * is a SyntheticParams tuned to reproduce the *qualitative* memory
 * behaviour the paper's figures depend on — working-set size (miss
 * rate), sharing and store intensity (invalidation races that hit
 * reordered loads), lock rate (atomics), and ILP/dependence shape.
 * DESIGN.md documents this substitution.
 */

#ifndef WB_WORKLOAD_BENCHMARKS_HH
#define WB_WORKLOAD_BENCHMARKS_HH

#include <string>
#include <vector>

#include "workload/synthetic.hh"

namespace wb
{

/** All benchmark names, in the order the figures print them. */
const std::vector<std::string> &benchmarkNames();

/** SPLASH-3 subset of benchmarkNames(). */
const std::vector<std::string> &splashNames();

/** PARSEC subset of benchmarkNames(). */
const std::vector<std::string> &parsecNames();

/** The scales a command line or manifest may ask for. Scales below
 *  0.05 run as 0.05; the cap keeps iteration counts representable. */
inline constexpr double minScale = 1e-6;
inline constexpr double maxScale = 1e6;

/**
 * Profile for @p name. @p scale multiplies the iteration count
 * (1.0 = the default used by the benches; tests use less).
 */
SyntheticParams benchmarkProfile(const std::string &name,
                                 double scale = 1.0);

/** Convenience: build the workload for @p threads threads. */
Workload makeBenchmark(const std::string &name, int threads,
                       double scale = 1.0);

} // namespace wb

#endif // WB_WORKLOAD_BENCHMARKS_HH

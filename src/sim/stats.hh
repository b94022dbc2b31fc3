/**
 * @file
 * Minimal statistics package: named counters and histograms that
 * register themselves with a StatRegistry for end-of-run reporting.
 */

#ifndef WB_SIM_STATS_HH
#define WB_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace wb
{

/** Base class for all statistics. */
class StatBase
{
  public:
    explicit StatBase(std::string name) : _name(std::move(name)) {}
    virtual ~StatBase() = default;

    const std::string &name() const { return _name; }

    /** Measurement unit ("" = dimensionless count). Surfaced only by
     *  the metrics registry (obs/metrics.hh); never printed in run
     *  reports, so labelling a stat cannot change report bytes. */
    const std::string &unit() const { return _unit; }
    void setUnit(std::string unit) { _unit = std::move(unit); }

    /** Render a one-line textual representation of the value. */
    virtual void print(std::ostream &os) const = 0;

    /** Reset to the initial state. */
    virtual void reset() = 0;

  private:
    std::string _name;
    std::string _unit;
};

/** Monotonically increasing (or at least scalar) event counter. */
class Counter : public StatBase
{
  public:
    explicit Counter(std::string name) : StatBase(std::move(name)) {}

    Counter &operator++() { ++_value; return *this; }
    Counter &operator+=(std::uint64_t v) { _value += v; return *this; }

    std::uint64_t value() const { return _value; }

    void print(std::ostream &os) const override;
    void reset() override { _value = 0; }

  private:
    std::uint64_t _value = 0;
};

/** Histogram over power-of-two buckets, with mean/min/max. */
class Histogram : public StatBase
{
  public:
    explicit Histogram(std::string name, int num_buckets = 20)
        : StatBase(std::move(name)), _buckets(num_buckets, 0)
    {}

    void sample(std::uint64_t v);

    std::uint64_t samples() const { return _samples; }
    std::uint64_t sum() const { return _sum; }
    /** Smallest sampled value; 0 when the histogram is empty. */
    std::uint64_t minValue() const { return _samples ? _min : 0; }
    std::uint64_t maxValue() const { return _max; }
    double mean() const
    {
        return _samples ? double(_sum) / double(_samples) : 0.0;
    }

    /**
     * Approximate percentile (@p p in [0, 100]) read from the
     * power-of-two buckets: the inclusive upper bound of the bucket
     * holding the p-th sample, clamped to the observed maximum.
     * Exact for 0/max, never off by more than one bucket width; 0
     * when empty.
     */
    std::uint64_t percentile(double p) const;
    std::uint64_t p50() const { return percentile(50.0); }
    std::uint64_t p95() const { return percentile(95.0); }
    std::uint64_t p99() const { return percentile(99.0); }

    void print(std::ostream &os) const override;
    void reset() override;

  private:
    std::vector<std::uint64_t> _buckets;
    std::uint64_t _samples = 0;
    std::uint64_t _sum = 0;
    std::uint64_t _min = ~std::uint64_t(0);
    std::uint64_t _max = 0;
};

/**
 * Registry of statistics, keyed by fully-qualified name
 * ("component.stat"). Stats register on construction via
 * StatGroup and are looked up for reporting and for tests.
 */
class StatRegistry
{
  public:
    /** Register a stat; the registry does not own it. */
    void add(StatBase *stat);

    /** Remove a stat (used by component destructors). */
    void remove(StatBase *stat);

    /** Find a stat by full name; nullptr if absent. */
    StatBase *find(const std::string &name) const;

    /** Counter value by name; 0 if absent. */
    std::uint64_t counterValue(const std::string &name) const;

    /**
     * Does @p name match @p pattern segment by segment? '*' stands
     * for one dot-free name segment: "core.*.commits" matches every
     * core's commit counter and nothing else.
     */
    static bool matches(std::string_view pattern,
                        std::string_view name);

    /** Sum of every counter whose name matches @p pattern. */
    std::uint64_t sum(std::string_view pattern) const;

    /** Dump all stats, sorted by name. */
    void dump(std::ostream &os) const;

    /** Every registered stat, keyed (and iterated) by full name;
     *  used by the JSON run report to emit the whole registry. */
    const std::map<std::string, StatBase *> &all() const
    {
        return _stats;
    }

    /** Reset every registered stat. */
    void resetAll();

  private:
    std::map<std::string, StatBase *> _stats;
};

/**
 * Convenience owner of a group of stats sharing a name prefix.
 * Components hold one StatGroup and create stats through it.
 */
class StatGroup
{
  public:
    StatGroup(StatRegistry *registry, std::string prefix)
        : _registry(registry), _prefix(std::move(prefix))
    {}

    ~StatGroup();

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Create and register a counter named "<prefix>.<name>";
     *  @p unit is an optional measurement-unit label. */
    Counter &counter(const std::string &name,
                     const std::string &unit = "");

    /** Create and register a histogram named "<prefix>.<name>";
     *  @p unit is an optional measurement-unit label. */
    Histogram &histogram(const std::string &name,
                         const std::string &unit = "");

    const std::string &prefix() const { return _prefix; }

  private:
    StatRegistry *_registry;
    std::string _prefix;
    std::vector<StatBase *> _owned;
};

} // namespace wb

#endif // WB_SIM_STATS_HH

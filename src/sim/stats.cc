#include "sim/stats.hh"

#include <bit>
#include <cassert>

namespace wb
{

void
Counter::print(std::ostream &os) const
{
    os << name() << " " << _value;
}

void
Histogram::sample(std::uint64_t v)
{
    ++_samples;
    _sum += v;
    _min = std::min(_min, v);
    _max = std::max(_max, v);
    // Bucket i holds values in [2^(i-1), 2^i), bucket 0 holds 0.
    std::size_t bucket = v == 0 ? 0 : std::bit_width(v);
    if (bucket >= _buckets.size())
        bucket = _buckets.size() - 1;
    ++_buckets[bucket];
}

std::uint64_t
Histogram::percentile(double p) const
{
    if (_samples == 0)
        return 0;
    if (p <= 0.0)
        return minValue();
    // Rank of the target sample (1-based, nearest-rank method).
    std::uint64_t rank = std::uint64_t(p / 100.0 * double(_samples) + 0.5);
    rank = std::max<std::uint64_t>(1, std::min(rank, _samples));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        seen += _buckets[i];
        if (seen >= rank) {
            // Bucket 0 holds 0; bucket i holds [2^(i-1), 2^i).
            std::uint64_t hi = i == 0 ? 0 : (std::uint64_t(1) << i) - 1;
            return std::min(hi, _max);
        }
    }
    return _max;
}

void
Histogram::print(std::ostream &os) const
{
    os << name() << " samples=" << _samples << " mean=" << mean()
       << " min=" << minValue() << " max=" << _max
       << " p50=" << p50() << " p95=" << p95() << " p99=" << p99();
}

void
Histogram::reset()
{
    std::fill(_buckets.begin(), _buckets.end(), 0);
    _samples = 0;
    _sum = 0;
    _min = ~std::uint64_t(0);
    _max = 0;
}

void
StatRegistry::add(StatBase *stat)
{
    assert(stat);
    auto [it, inserted] = _stats.emplace(stat->name(), stat);
    (void)it;
    assert(inserted && "duplicate stat name");
}

void
StatRegistry::remove(StatBase *stat)
{
    auto it = _stats.find(stat->name());
    if (it != _stats.end() && it->second == stat)
        _stats.erase(it);
}

StatBase *
StatRegistry::find(const std::string &name) const
{
    auto it = _stats.find(name);
    return it == _stats.end() ? nullptr : it->second;
}

std::uint64_t
StatRegistry::counterValue(const std::string &name) const
{
    auto *stat = dynamic_cast<Counter *>(find(name));
    return stat ? stat->value() : 0;
}

bool
StatRegistry::matches(std::string_view pattern, std::string_view name)
{
    for (;;) {
        const auto pd = pattern.find('.');
        const auto nd = name.find('.');
        const auto seg = pattern.substr(0, pd);
        if (seg != "*" && seg != name.substr(0, nd))
            return false;
        if (pd == std::string_view::npos ||
            nd == std::string_view::npos)
            return pd == nd;
        pattern.remove_prefix(pd + 1);
        name.remove_prefix(nd + 1);
    }
}

std::uint64_t
StatRegistry::sum(std::string_view pattern) const
{
    // Every match shares the pattern's literal prefix, and names
    // with one prefix are adjacent in the sorted map.
    const std::string prefix(pattern.substr(0, pattern.find('*')));
    std::uint64_t total = 0;
    for (auto it = _stats.lower_bound(prefix);
         it != _stats.end() && it->first.starts_with(prefix); ++it)
        if (matches(pattern, it->first))
            if (auto *c = dynamic_cast<const Counter *>(it->second))
                total += c->value();
    return total;
}

void
StatRegistry::dump(std::ostream &os) const
{
    for (const auto &[name, stat] : _stats) {
        stat->print(os);
        os << "\n";
    }
}

void
StatRegistry::resetAll()
{
    for (auto &[name, stat] : _stats)
        stat->reset();
}

StatGroup::~StatGroup()
{
    for (auto *stat : _owned) {
        if (_registry)
            _registry->remove(stat);
        delete stat;
    }
}

Counter &
StatGroup::counter(const std::string &name, const std::string &unit)
{
    auto *c = new Counter(_prefix + "." + name);
    c->setUnit(unit);
    _owned.push_back(c);
    if (_registry)
        _registry->add(c);
    return *c;
}

Histogram &
StatGroup::histogram(const std::string &name, const std::string &unit)
{
    auto *h = new Histogram(_prefix + "." + name);
    h->setUnit(unit);
    _owned.push_back(h);
    if (_registry)
        _registry->add(h);
    return *h;
}

} // namespace wb

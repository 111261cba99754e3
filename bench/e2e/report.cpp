#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/error.h"

namespace accpar::bench {

void
RunReport::metric(const std::string &name, double value,
                  const std::string &unit)
{
    util::Json entry = util::Json::Object{};
    entry["value"] = value;
    entry["unit"] = unit;
    metrics[name] = std::move(entry);
}

void
RunReport::check(const std::string &name, bool passed)
{
    const bool before = checks.contains(name) ? checks.at(name).asBool()
                                              : true;
    checks[name] = before && passed;
    correct = correct && passed;
}

double
percentile(std::vector<double> values, double q)
{
    ACCPAR_REQUIRE(!values.empty(), "percentile of no samples");
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::max<std::size_t>(rank, 1) - 1];
}

std::size_t
samplesBeyond(std::size_t n, double q)
{
    return n - std::max<std::size_t>(
                   static_cast<std::size_t>(
                       std::ceil(q * static_cast<double>(n))),
                   1);
}

void
latencyMetrics(RunReport &report, const std::vector<double> &ms)
{
    report.metric("req_p50_ms", percentile(ms, 0.50), "ms");
    report.metric("req_p90_ms", percentile(ms, 0.90), "ms");
    report.samples["req_p50_ms"] = static_cast<std::int64_t>(ms.size());
    report.samples["req_p90_ms_beyond"] =
        static_cast<std::int64_t>(samplesBeyond(ms.size(), 0.90));
    report.check("p90_has_10_samples_beyond",
                 samplesBeyond(ms.size(), 0.90) >= 10);
}

void
Fnv::add(std::string_view bytes)
{
    for (char c : bytes) {
        _hash ^= static_cast<unsigned char>(c);
        _hash *= 1099511628211ull;
    }
}

std::string
Fnv::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(_hash));
    return buf;
}

std::string
fnvHex(std::string_view bytes)
{
    Fnv fnv;
    fnv.add(bytes);
    return fnv.hex();
}

} // namespace accpar::bench

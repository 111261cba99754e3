/**
 * @file
 * What one benchmark run reports, and the statistics it is built from.
 */

#ifndef ACCPAR_BENCH_E2E_REPORT_H
#define ACCPAR_BENCH_E2E_REPORT_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.h"

namespace accpar::bench {

/** Command-line options of one run. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    /** How long the run measures. */
    double seconds = 10.0;
    /** Chrome trace output; empty for an untraced run. */
    std::string tracePath;

    bool traced() const { return !tracePath.empty(); }
};

/**
 * Least number of timed requests per run: the p90 then has at least
 * ten samples beyond it. A run keeps measuring past --seconds until it
 * has them.
 */
inline constexpr std::size_t kMinSamples = 100;

/** The result of one run. */
struct RunReport
{
    /** False once any output check failed. */
    bool correct = true;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    /** name -> {"value", "unit"}. */
    util::Json metrics = util::Json::Object{};
    /** Sample count beside each percentile metric. */
    util::Json samples = util::Json::Object{};
    /** Output check name -> passed. */
    util::Json checks = util::Json::Object{};
    /** Workload-specific numbers outside the declared metrics. */
    util::Json details = util::Json::Object{};
    /** Hash over the run's plan bytes and certificate fingerprints. */
    std::string outputDigest;

    void metric(const std::string &name, double value,
                const std::string &unit);

    /** Records an output check; a failed one makes the run incorrect.
     *  Checks of one name accumulate (all must pass). */
    void check(const std::string &name, bool passed);
};

/** Nearest-rank percentile (q in (0, 1]) of @p values. */
double percentile(std::vector<double> values, double q);

/** Samples strictly beyond the nearest-rank percentile @p q of n. */
std::size_t samplesBeyond(std::size_t n, double q);

/** Records req_p50_ms, req_p90_ms and their sample counts. */
void latencyMetrics(RunReport &report, const std::vector<double> &ms);

/** 64-bit FNV-1a, rendered as 16 hex digits. */
class Fnv
{
  public:
    void add(std::string_view bytes);
    std::uint64_t value() const { return _hash; }
    std::string hex() const;

  private:
    std::uint64_t _hash = 14695981039346656037ull;
};

/** FNV-1a hex digest of @p bytes. */
std::string fnvHex(std::string_view bytes);

} // namespace accpar::bench

#endif // ACCPAR_BENCH_E2E_REPORT_H

#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <iostream>
#include <map>

#include "core/planner.h"
#include "graph/dot_export.h"
#include "models/import.h"
#include "util/error.h"

namespace accpar::bench {

namespace {

/** Peak resident set of this process, in MB. */
double
selfPeakRssMb()
{
    rusage usage = {};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** The first requests of a stream: their outputs form the digest, are
 *  checked outside the timed loop, and give the traced run's counts. */
std::size_t
digestCount(const JobStream &stream)
{
    return std::max<std::size_t>(stream.roundSize(), 20);
}

/** Plan hash per request key, for the determinism check and digest. */
class PlanLedger
{
  public:
    /** Records @p bytes for @p job; false when an earlier request with
     *  the same key produced different bytes. Sets @p first when this
     *  is the key's first request. */
    bool record(const PlanJob &job, const std::string &bytes, bool &first)
    {
        const std::string hash = fnvHex(bytes);
        const auto [it, inserted] = _hashes.emplace(job.key, hash);
        first = inserted;
        return inserted || it->second == hash;
    }

    const std::string &hash(const std::string &key) const
    {
        return _hashes.at(key);
    }

    /** Digest over the plan hashes of @p keys. */
    std::string digest(std::vector<std::string> keys) const
    {
        std::sort(keys.begin(), keys.end());
        Fnv fnv;
        for (const std::string &key : keys) {
            fnv.add(key);
            fnv.add("=");
            fnv.add(_hashes.at(key));
            fnv.add("\n");
        }
        return fnv.hex();
    }

  private:
    std::map<std::string, std::string> _hashes;
};

/** Whether the measuring loop stops before its next request: after
 *  --seconds with @p needed requests done, or at a cap that keeps the
 *  run well inside three minutes. */
bool
loopDone(Clock::time_point start, const RunOptions &options,
         std::size_t done, std::size_t needed)
{
    const double elapsed = msBetween(start, Clock::now()) / 1e3;
    if (elapsed >= std::max(3.0 * options.seconds, 60.0))
        return true;
    return elapsed >= options.seconds && done >= needed;
}

/** Output checks run after the timed loop on the first distinct
 *  requests. */
void
checkOutputs(RunReport &report, const RunOptions &options,
             const std::vector<PlanJob> &jobs, const PlanLedger &ledger)
{
    for (const PlanJob &job : jobs) {
        if (options.workload == "plan-cold")
            report.check("matches_legacy_dp",
                         fnvHex(legacyPlanBytes(job)) ==
                             ledger.hash(job.key));
        if (options.workload == "plan-dag") {
            const graph::Graph model = models::importDot(*job.dot);
            report.check("dot_import_round_trip",
                         graph::toDot(model) == *job.dot);
            report.check("dag_requests_take_sp_mode",
                         !core::PartitionProblem(model).hasChain());
        }
    }
    // Plans must not depend on the planner's thread count.
    const std::size_t rerun = std::min<std::size_t>(jobs.size(), 8);
    for (std::size_t i = 0; i < rerun; ++i)
        report.check("jobs_2_identical",
                     fnvHex(runPlanner(jobs[i], 2).bytes) ==
                         ledger.hash(jobs[i].key));
}

void
checkResponse(RunReport &report, const PlanOutput &out)
{
    report.check("plans_verifier_clean", out.verifierClean);
    if (out.iterations > 0)
        report.check("search_never_worse_than_baseline",
                     out.bestCost <= out.baselineCost);
}

RunReport
runTimed(const RunOptions &options)
{
    RunReport report;
    JobStream stream(options.workload, options.seed);
    const std::size_t needed =
        std::max(kMinSamples, digestCount(stream));

    PlanLedger ledger;
    std::vector<PlanJob> first_jobs;
    std::vector<double> ms;
    std::map<int, std::vector<double>> stratum_ms;

    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; !loopDone(start, options, i, needed); ++i) {
        const PlanJob job = stream.at(i);
        ++report.attempted;
        const Clock::time_point t0 = Clock::now();
        PlanOutput out;
        try {
            out = runPlanner(job);
        } catch (const std::exception &e) {
            std::cerr << "request " << i << " (" << job.key
                      << ") failed: " << e.what() << '\n';
            ++report.failed;
            continue;
        }
        ms.push_back(msBetween(t0, Clock::now()));
        stratum_ms[job.stratum].push_back(ms.back());

        checkResponse(report, out);
        bool first = false;
        report.check("repeated_requests_identical",
                     ledger.record(job, out.bytes, first));
        if (first && i < digestCount(stream))
            first_jobs.push_back(job);
    }
    report.metric("peak_rss_mb", selfPeakRssMb(), "MB");
    latencyMetrics(report, ms);
    // One round of the mix at each stratum's median latency: the
    // host's slow spells, which hit a minority of requests, do not
    // move it the way they move a mean.
    double round_ms = 0.0;
    for (const auto &[stratum, samples] : stratum_ms)
        round_ms += percentile(samples, 0.5);
    report.metric("req_per_s",
                  static_cast<double>(stratum_ms.size()) * 1e3 / round_ms,
                  "1/s");
    report.details["requests"] = static_cast<std::int64_t>(ms.size());
    report.details["strata"] =
        static_cast<std::int64_t>(stratum_ms.size());
    report.details["distinct_checked"] =
        static_cast<std::int64_t>(first_jobs.size());

    std::vector<std::string> digest_keys;
    for (const PlanJob &job : first_jobs)
        digest_keys.push_back(job.key);
    report.outputDigest = ledger.digest(digest_keys);
    checkOutputs(report, options, first_jobs, ledger);
    return report;
}

RunReport
runTraced(const RunOptions &options)
{
    RunReport report;
    SpanTrace trace;
    JobStream stream(options.workload, options.seed);

    PlanLedger ledger;
    LayerCounts counts;
    std::vector<std::string> digest_keys;
    double untraced_ns = 0.0;
    double traced_ns = 0.0;

    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0;
         !loopDone(start, options, i, digestCount(stream)); ++i) {
        const PlanJob job = stream.at(i);
        ++report.attempted;
        PlanOutput planned;
        PlanOutput traced;
        const auto untraced_call = [&] {
            const Clock::time_point t0 = Clock::now();
            planned = runPlanner(job);
            untraced_ns += static_cast<double>(
                nanosBetween(t0, Clock::now()));
        };
        const auto traced_call = [&] {
            const Clock::time_point t0 = Clock::now();
            traced = runDecomposed(job, trace,
                                   static_cast<std::int64_t>(i), false);
            traced_ns += static_cast<double>(
                nanosBetween(t0, Clock::now()));
        };
        try {
            // Alternate which path runs first, so neither always gets
            // the warmer caches.
            if (i % 2 == 0) {
                untraced_call();
                traced_call();
            } else {
                traced_call();
                untraced_call();
            }
        } catch (const std::exception &e) {
            std::cerr << "request " << i << " (" << job.key
                      << ") failed: " << e.what() << '\n';
            ++report.failed;
            continue;
        }

        report.check("decomposed_matches_planner",
                     traced.bytes == planned.bytes);
        checkResponse(report, planned);
        checkResponse(report, traced);
        bool first = false;
        report.check("repeated_requests_identical",
                     ledger.record(job, traced.bytes, first));
        if (first && i < digestCount(stream)) {
            counts.add(traced);
            digest_keys.push_back(job.key);
        }
    }
    reportLayerMetrics(report, trace, counts, untraced_ns, traced_ns);
    report.outputDigest = ledger.digest(digest_keys);
    trace.writeChrome(options.tracePath);
    return report;
}

/** Self time of @p name over the run, or zero when never recorded. */
double
selfNs(const std::map<std::string, SelfTime> &selfs,
       const std::string &name)
{
    const auto it = selfs.find(name);
    return it == selfs.end() ? 0.0 : it->second.selfNs;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

void
LayerCounts::add(const PlanOutput &out)
{
    ++requests;
    cacheLookups += static_cast<double>(out.cache.hits + out.cache.misses);
    cacheHits += static_cast<double>(out.cache.hits);
    condensedNodes += static_cast<double>(out.condensedNodes);
    chainMode += out.chainMode ? 1.0 : 0.0;
    planBytes += static_cast<double>(out.bytes.size());
    if (!out.certificateFingerprint.empty()) {
        ++certificates;
        certificateBytes += static_cast<double>(out.certificate.dump().size());
    }
    if (out.iterations > 0) {
        ++searches;
        iterations += out.iterations;
        oracleSolves += out.oracleSolves;
        accepted += out.accepted;
        bestOverBaseline += out.bestCost / out.baselineCost;
    }
}

void
reportLayerMetrics(RunReport &report, const SpanTrace &trace,
                   const LayerCounts &counts, double untracedNs,
                   double tracedNs)
{
    const std::map<std::string, SelfTime> selfs = trace.selfTimes();
    const auto root = selfs.find("request");
    ACCPAR_REQUIRE(root != selfs.end() && root->second.calls > 0,
                   "traced run recorded no decomposed request");
    const double requests = static_cast<double>(root->second.calls);
    const double total = root->second.totalNs;
    const auto ms = [&](const char *name) {
        return selfNs(selfs, name) / requests / 1e6;
    };
    const auto share = [&](const char *name) {
        return ratio(selfNs(selfs, name), total);
    };

    report.metric("models.load_ms", ms("models.load"), "ms");
    report.metric("hw.hierarchy_ms", ms("hw.hierarchy"), "ms");
    report.metric("core.problem_ms", ms("core.problem"), "ms");
    report.metric("core.solve_ms", ms("core.solve"), "ms");
    report.metric("analysis.verify_ms", ms("analysis.verify"), "ms");
    report.metric("core.plan_json_ms", ms("core.plan_json"), "ms");
    report.metric("core.release_ms", ms("core.release"), "ms");
    report.metric("trace.request_ms", total / requests / 1e6, "ms");
    report.metric("core.solve_share", share("core.solve"), "ratio");
    report.metric("search.anneal_share", share("search.anneal"), "ratio");
    report.metric("core.cert_share", share("core.cert_json"), "ratio");

    const double coverage = 1.0 - ratio(root->second.selfNs, total);
    report.metric("trace.self_time_coverage", coverage, "ratio");
    report.check("layer_self_times_cover_95pct", coverage >= 0.95);
    report.metric("trace.overhead_ratio",
                  ratio(tracedNs, untracedNs) - 1.0, "ratio");

    const double n = static_cast<double>(counts.requests);
    report.metric("core.cost_cache_lookups", ratio(counts.cacheLookups, n),
                  "count");
    report.metric("core.cost_cache_hit_ratio",
                  ratio(counts.cacheHits, counts.cacheLookups), "ratio");
    report.metric("core.condensed_nodes_mean",
                  ratio(counts.condensedNodes, n), "count");
    report.metric("core.chain_mode_ratio", ratio(counts.chainMode, n),
                  "ratio");
    report.metric("core.plan_bytes_mean", ratio(counts.planBytes, n),
                  "bytes");
    report.metric("core.cert_bytes_mean",
                  ratio(counts.certificateBytes,
                        static_cast<double>(counts.certificates)),
                  "bytes");
    report.metric("search.oracle_solves_per_iteration",
                  ratio(counts.oracleSolves, counts.iterations), "ratio");
    report.metric("search.accept_ratio",
                  ratio(counts.accepted, counts.iterations), "ratio");
    report.metric("search.best_over_baseline",
                  ratio(counts.bestOverBaseline,
                        static_cast<double>(counts.searches)),
                  "ratio");

    // Service and network layers: serve-mixed overwrites these.
    for (const char *name :
         {"service.result_cache_hit_ratio", "service.parse_share",
          "net.overhead_share", "gen.late_p99_share"})
        report.metric(name, 0.0, "ratio");
    for (const char *name :
         {"service.result_cache_evictions", "service.queue_rejected"})
        report.metric(name, 0.0, "count");
    report.details["traced_requests"] = root->second.calls;
    report.details["spans"] =
        static_cast<std::int64_t>(trace.spans().size());
}

RunReport
runInProcess(const RunOptions &options)
{
    return options.traced() ? runTraced(options) : runTimed(options);
}

void
probeInProcess(const RunOptions &options)
{
    const JobStream stream(options.workload, options.seed);
    runPlanner(stream.probeJob());
    std::cout << "ready" << std::endl;
}

} // namespace accpar::bench

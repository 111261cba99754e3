/**
 * @file
 * The in-process workloads (plan-cold, plan-dag, search) and the
 * per-layer metrics every traced run reports.
 */

#ifndef ACCPAR_BENCH_E2E_WORKLOADS_H
#define ACCPAR_BENCH_E2E_WORKLOADS_H

#include <cstdint>

#include "pipeline.h"
#include "report.h"
#include "span_trace.h"

namespace accpar::bench {

/** Counts over the distinct requests of a traced run's decomposed
 *  pass; they repeat exactly for a given seed. */
struct LayerCounts
{
    std::int64_t requests = 0;
    double cacheLookups = 0.0;
    double cacheHits = 0.0;
    double condensedNodes = 0.0;
    double chainMode = 0.0;
    double planBytes = 0.0;
    std::int64_t certificates = 0;
    double certificateBytes = 0.0;
    std::int64_t searches = 0;
    double iterations = 0.0;
    double oracleSolves = 0.0;
    double accepted = 0.0;
    double bestOverBaseline = 0.0;

    void add(const PlanOutput &out);
};

/**
 * Reports the per-layer metrics of the decomposed pass in @p trace:
 * mean self time per request of each layer, the shares of request
 * time, the counts, and how much tracing cost against @p untracedNs,
 * the same requests through the untraced Planner. Metrics of layers
 * the workload never reaches read 0.
 */
void reportLayerMetrics(RunReport &report, const SpanTrace &trace,
                        const LayerCounts &counts, double untracedNs,
                        double tracedNs);

/** plan-cold, plan-dag or search, untraced or traced. */
RunReport runInProcess(const RunOptions &options);

/** Set-up probe: builds the inputs and answers JobStream::probeJob();
 *  prints "ready" once it has the response. */
void probeInProcess(const RunOptions &options);

} // namespace accpar::bench

#endif // ACCPAR_BENCH_E2E_WORKLOADS_H

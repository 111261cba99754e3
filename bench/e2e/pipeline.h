/**
 * @file
 * One planning request of the in-process workloads, run two ways.
 *
 * runPlanner() is what a user pays: a fresh Planner per request, as
 * `accpar plan` and `accpar search` run it. runDecomposed() sends the
 * same request as the sequence of public calls the Planner makes
 * (catalog build or DOT import, array parse and hierarchy, problem
 * compile, annealing, strategy solve, verification, serialization,
 * certificate emission), recording one span per call. Both must
 * produce the same plan bytes; the traced run checks that they do.
 */

#ifndef ACCPAR_BENCH_E2E_PIPELINE_H
#define ACCPAR_BENCH_E2E_PIPELINE_H

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/cost_cache.h"
#include "inputs.h"
#include "span_trace.h"
#include "util/json.h"

namespace accpar::bench {

/** What one request produced. */
struct PlanOutput
{
    /** planToJson of the plan against the hierarchy it was solved on,
     *  pretty-printed as `accpar plan --out` writes it. */
    std::string bytes;
    /** The plan verifier reported nothing. */
    bool verifierClean = false;

    /// @name Outer search (budgetIters > 0 only).
    /// @{
    double baselineCost = 0.0;
    double bestCost = 0.0;
    int iterations = 0;
    int accepted = 0;
    int oracleSolves = 0;
    /// @}

    /** The emitted certificate document and its fingerprint, if any;
     *  returned so that measuring its size stays out of the timing. */
    util::Json certificate;
    std::string certificateFingerprint;

    /// @name Decomposed path only.
    /// @{
    core::CostCacheStats cache;
    std::size_t condensedNodes = 0;
    bool chainMode = false;
    /// @}
};

/** The request through Planner::plan with @p jobs lanes; with
 *  @p certificate it also emits, serializes and fingerprints the
 *  certificate as the service's plan path does. */
PlanOutput runPlanner(const PlanJob &job, int jobs = 1,
                      bool certificate = false);

/**
 * The request as the decomposed sequence of public calls. Spans go to
 * @p trace under request id @p request, nested in one "request" root;
 * a last "core.release" span covers freeing what the calls produced.
 * With @p certificate the solve also emits its certificate, which is
 * serialized and fingerprinted as the service does on a cache miss.
 */
PlanOutput runDecomposed(const PlanJob &job, SpanTrace &trace,
                         std::int64_t request, bool certificate);

/**
 * The same plan from the frozen pre-refactor solver of
 * tests/support/legacy_dp. Chain-mode catalog models only; ConfigError
 * otherwise.
 */
std::string legacyPlanBytes(const PlanJob &job);

} // namespace accpar::bench

#endif // ACCPAR_BENCH_E2E_PIPELINE_H

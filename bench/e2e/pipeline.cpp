#include "pipeline.h"

#include <memory>
#include <optional>

#include "analysis/plan_verifier.h"
#include "core/certificate.h"
#include "core/certificate_io.h"
#include "core/plan_io.h"
#include "core/planner.h"
#include "hw/hierarchy.h"
#include "hw/topology.h"
#include "models/import.h"
#include "search/annealing.h"
#include "strategies/registry.h"
#include "support/legacy_dp.h"
#include "util/error.h"

namespace accpar::bench {

PlanOutput
runPlanner(const PlanJob &job, int jobs, bool certificate)
{
    hw::AcceleratorGroup array = hw::parseArraySpec(job.array);
    PlanRequest request =
        job.dot ? PlanRequest(models::importDot(*job.dot), std::move(array))
                : PlanRequest(job.model, job.params, std::move(array));
    request.jobs = jobs;
    request.options.emitCertificate = certificate;
    request.options.search.budgetIters = job.budgetIters;
    request.options.search.seed = job.searchSeed;

    Planner planner;
    const PlanResult result = planner.plan(request);

    PlanOutput out;
    out.verifierClean = result.diagnostics.empty();
    std::optional<hw::Hierarchy> seed_hierarchy;
    if (!result.searchedHierarchy)
        seed_hierarchy.emplace(request.array);
    const hw::Hierarchy &hierarchy = result.searchedHierarchy
                                         ? *result.searchedHierarchy
                                         : *seed_hierarchy;
    out.bytes = core::planToJson(result.plan, hierarchy).dump(2);
    if (result.certificate) {
        out.certificate =
            core::certificateToJson(*result.certificate, hierarchy);
        out.certificateFingerprint =
            core::certificateFingerprint(out.certificate);
    }
    if (result.searchReport) {
        out.baselineCost = result.searchReport->baselineCost;
        out.bestCost = result.searchReport->bestCost;
        out.iterations = result.searchReport->iterations;
        out.accepted = result.searchReport->accepted;
        out.oracleSolves = result.searchReport->oracleSolves;
    }
    return out;
}

PlanOutput
runDecomposed(const PlanJob &job, SpanTrace &trace, std::int64_t request,
              bool certificate)
{
    // Everything the calls produce, released inside the request's
    // span like the Planner path releases it.
    struct Artifacts
    {
        std::optional<graph::Graph> model;
        hw::AcceleratorGroup array;
        std::optional<hw::Hierarchy> hierarchy;
        std::optional<core::PartitionProblem> problem;
        std::optional<search::SearchOutcome> outcome;
        core::CostCache cache;
        core::PlanCertificate evidence;
        core::PartitionPlan plan;
    };
    auto a = std::make_unique<Artifacts>();
    PlanOutput out;
    const Span root(trace, "request", request);

    {
        const Span span(trace, "models.load", request);
        if (job.dot)
            a->model.emplace(models::importDot(*job.dot));
        else
            a->model.emplace(
                models::catalog().build(job.model, job.params));
    }
    {
        const Span span(trace, "hw.hierarchy", request);
        a->array = hw::parseArraySpec(job.array);
        a->hierarchy.emplace(a->array);
    }
    {
        const Span span(trace, "core.problem", request);
        a->problem.emplace(*a->model);
    }
    out.condensedNodes = a->problem->condensed().size();
    out.chainMode = a->problem->hasChain();

    core::SolveContext context{nullptr, &a->cache};
    const hw::Hierarchy *solve_on = &*a->hierarchy;
    if (job.budgetIters > 0) {
        const Span span(trace, "search.anneal", request);
        search::SearchOptions options;
        options.seed = job.searchSeed;
        options.budgetIters = job.budgetIters;
        options.solver = PlanOptions().toSolverOptions("accpar");
        a->outcome.emplace(
            search::AnnealingDriver(*a->problem, a->array, options)
                .run(context));
        solve_on = &a->outcome->bestHierarchy;
        const search::SearchReport &report = a->outcome->report;
        out.baselineCost = report.baselineCost;
        out.bestCost = report.bestCost;
        out.iterations = report.iterations;
        out.accepted = report.accepted;
        out.oracleSolves = report.oracleSolves;
    }

    if (certificate)
        context.certificate = &a->evidence;
    core::CostModelConfig cost;
    {
        const Span span(trace, "core.solve", request);
        const strategies::StrategyPtr strategy =
            strategies::makeStrategy("accpar");
        cost = strategy->costConfig();
        a->plan = strategy->plan(*a->problem, *solve_on, context);
    }
    out.cache = a->cache.stats();

    {
        const Span span(trace, "analysis.verify", request);
        analysis::DiagnosticSink sink;
        analysis::VerifyOptions verify;
        verify.cost = cost;
        analysis::verifyPlan(*a->problem, *solve_on, a->plan, verify, sink);
        out.verifierClean = sink.empty();
    }
    {
        const Span span(trace, "core.plan_json", request);
        out.bytes = core::planToJson(a->plan, *solve_on).dump(2);
    }
    if (certificate) {
        const Span span(trace, "core.cert_json", request);
        out.certificate = core::certificateToJson(a->evidence, *solve_on);
        out.certificateFingerprint =
            core::certificateFingerprint(out.certificate);
    }
    {
        const Span span(trace, "core.release", request);
        a.reset();
    }
    return out;
}

std::string
legacyPlanBytes(const PlanJob &job)
{
    ACCPAR_REQUIRE(!job.dot && job.budgetIters == 0,
                   "the legacy solver covers catalog plans only");
    const core::PartitionProblem problem(
        models::catalog().build(job.model, job.params));
    const hw::Hierarchy hierarchy(hw::parseArraySpec(job.array));
    const strategies::StrategyPtr strategy =
        strategies::makeStrategy("accpar");
    core::SolverOptions options;
    options.strategyName = strategy->name();
    options.cost = strategy->costConfig();
    core::CostCache memo;
    return core::planToJson(core::legacy::solveHierarchy(
                                problem, hierarchy, options, &memo),
                            hierarchy)
        .dump(2);
}

} // namespace accpar::bench

/**
 * @file
 * Anytime outer-loop search benchmark: DP baseline vs simulated
 * annealing (DESIGN.md §16) on the Figure 5/6 heterogeneous setting.
 *
 * For each network, plans once with the exact DP on the seed
 * hierarchy and once with the annealing outer loop (fixed seed and
 * iteration budget, so the run is reproducible bit for bit), and
 * reports the cost delta plus the anytime improvement curve.
 *
 * This is a CI gate, not just a timer. The run fails nonzero when:
 *  - any searched cost exceeds its DP baseline (the never-worse
 *    contract of search::AnnealingDriver);
 *  - an anytime curve is not strictly decreasing after its baseline
 *    point (the curve must never revisit or worsen a best);
 *  - the search finds no strict improvement on any workload (the
 *    whole point of the outer loop on heterogeneous arrays);
 *  - the winning plan's certificate does not audit clean through
 *    analysis::checkCertificate.
 */

#include <iostream>
#include <string>
#include <vector>

#include "analysis/certificate_checker.h"
#include "analysis/diagnostic.h"
#include "bench_json.h"
#include "core/planner.h"
#include "hw/topology.h"
#include "models/zoo.h"
#include "search/annealing.h"
#include "util/table.h"

namespace {

using namespace accpar;

/** Fig-5 style heterogeneous array small enough for a Debug CI run:
 *  8 TPU-v2 + 8 TPU-v3 boards (four hierarchy levels). */
constexpr int kLevels = 4;
constexpr std::int64_t kBatch = 512;
constexpr int kBudgetIters = 96;
constexpr std::uint64_t kSeed = 1;

} // namespace

int
main()
{
    const std::vector<std::string> models = {"vgg16", "resnet50",
                                             "bert-base"};
    const hw::AcceleratorGroup array =
        hw::heterogeneousTpuArrayForLevels(kLevels);

    bench::BenchReport report("search_anytime");
    util::Table table({"model", "dp cost", "sa cost", "delta %",
                       "iters", "improvements", "seconds"});
    bool never_worse_violated = false;
    bool curve_violated = false;
    bool audit_dirty = false;
    int improved_models = 0;

    for (const std::string &name : models) {
        PlanRequest request(models::buildModel(name, kBatch), array);
        request.options.search.budgetIters = kBudgetIters;
        request.options.search.seed = kSeed;
        request.options.emitCertificate = true;

        Planner planner;
        const PlanResult result = planner.plan(request);
        const search::SearchReport &sa = *result.searchReport;

        if (sa.bestCost > sa.baselineCost) {
            std::cerr << "FAIL: " << name << " searched cost "
                      << sa.bestCost << " exceeds DP baseline "
                      << sa.baselineCost << '\n';
            never_worse_violated = true;
        }
        for (std::size_t i = 1; i < sa.anytime.size(); ++i) {
            if (sa.anytime[i].bestCost <
                sa.anytime[i - 1].bestCost)
                continue;
            std::cerr << "FAIL: " << name
                      << " anytime curve not decreasing at point "
                      << i << '\n';
            curve_violated = true;
        }
        if (sa.improvedOverBaseline())
            ++improved_models;

        // The winner must carry evidence that audits clean — the
        // outer loop may only ever hand back verified plans.
        analysis::DiagnosticSink sink;
        const core::PartitionProblem problem(
            models::buildModel(name, kBatch));
        analysis::checkCertificate(problem, *result.searchedHierarchy,
                                   result.plan, *result.certificate,
                                   analysis::CheckOptions{}, sink);
        if (sink.errorCount() > 0) {
            std::cerr << "FAIL: " << name
                      << " winning certificate audit:\n"
                      << sink.renderText() << '\n';
            audit_dirty = true;
        }

        const double delta_pct =
            sa.baselineCost > 0.0
                ? (1.0 - sa.bestCost / sa.baselineCost) * 100.0
                : 0.0;
        table.addRow(name,
                     {sa.baselineCost, sa.bestCost, delta_pct,
                      static_cast<double>(sa.iterations),
                      static_cast<double>(sa.improved),
                      result.planSeconds});

        util::Json &metrics = report.addRow(name);
        metrics["dp_cost"] = sa.baselineCost;
        metrics["sa_cost"] = sa.bestCost;
        metrics["delta_pct"] = delta_pct;
        metrics["iterations"] =
            static_cast<std::int64_t>(sa.iterations);
        metrics["accepted"] = static_cast<std::int64_t>(sa.accepted);
        metrics["improvements"] =
            static_cast<std::int64_t>(sa.improved);
        metrics["search_seconds"] = result.planSeconds;
        // Oracle throughput: inner DP evaluations (the baseline plus
        // every scored candidate) per wall-clock second of the whole
        // plan call.
        metrics["oracle_solves"] =
            static_cast<std::int64_t>(sa.oracleSolves);
        metrics["oracle_solves_per_sec"] =
            result.planSeconds > 0.0
                ? static_cast<double>(sa.oracleSolves) /
                      result.planSeconds
                : 0.0;
        for (std::size_t i = 0; i < sa.anytime.size(); ++i) {
            util::Json &point = report.addRow(
                name + "/anytime/" + std::to_string(i));
            point["iteration"] =
                static_cast<std::int64_t>(sa.anytime[i].iteration);
            point["best_cost"] = sa.anytime[i].bestCost;
        }
    }

    std::cout << "anytime outer search vs exact DP on "
              << array.toString() << " (seed " << kSeed << ", "
              << kBudgetIters << " iterations)\n";
    table.print(std::cout);
    report.write();

    if (never_worse_violated || curve_violated || audit_dirty) {
        std::cerr << "FAIL: search gates violated\n";
        return 1;
    }
    if (improved_models == 0) {
        std::cerr << "FAIL: search improved none of the workloads\n";
        return 1;
    }
    std::cout << "search improved " << improved_models << " of "
              << models.size() << " workloads\n";
    return 0;
}

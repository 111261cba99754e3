/**
 * @file
 * Search-cost microbenchmarks (google-benchmark): the paper's §5.1
 * complexity claim — layer-wise DP is O(N) per hierarchy node while the
 * naive search is O(3^N) — plus the end-to-end planning and simulation
 * costs a user of this library pays.
 */

#include <chrono>

#include <benchmark/benchmark.h>

#include "core/brute_force.h"
#include "core/cost_cache.h"
#include "core/dp_kernel.h"
#include "core/hierarchical_solver.h"
#include "hw/hierarchy.h"
#include "models/zoo.h"
#include "sim/training_sim.h"
#include "strategies/registry.h"
#include "util/thread_pool.h"

namespace {

using namespace accpar;

/** Linear FC model with @p layers weighted layers. */
graph::Graph
chainModel(int layers)
{
    graph::Graph g("chain");
    auto x = g.addInput("data", graph::TensorShape(64, 128));
    for (int i = 0; i < layers; ++i)
        x = g.addFullyConnected("fc" + std::to_string(i), x, 128);
    return g;
}

core::PairCostModel
pairModel()
{
    core::PairCostModel model(
        {hw::tpuV2().computeDensity, hw::tpuV2().linkBandwidth},
        {hw::tpuV3().computeDensity, hw::tpuV3().linkBandwidth},
        core::CostModelConfig{});
    model.setAlpha(0.3);
    return model;
}

void
BM_ChainDpVsLayers(benchmark::State &state)
{
    const graph::Graph model = chainModel(static_cast<int>(state.range(
        0)));
    const core::PartitionProblem problem(model);
    const core::PairCostModel cost = pairModel();
    const auto allowed =
        core::unrestrictedTypes(problem.condensed());
    core::DpKernel kernel(problem.dpStructure(), problem.baseDims());
    for (auto _ : state)
        benchmark::DoNotOptimize(kernel.solve(cost, allowed));
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ChainDpVsLayers)->RangeMultiplier(2)->Range(2, 64)
    ->Complexity(benchmark::oN);

void
BM_BruteForceVsLayers(benchmark::State &state)
{
    const graph::Graph model = chainModel(static_cast<int>(state.range(
        0)));
    const core::PartitionProblem problem(model);
    const core::PairCostModel cost = pairModel();
    const auto allowed =
        core::unrestrictedTypes(problem.condensed());
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::bruteForceSearch(
            problem.condensed(), problem.baseDims(), cost, allowed));
    }
}
BENCHMARK(BM_BruteForceVsLayers)->DenseRange(2, 12, 2);

void
BM_PlanModel(benchmark::State &state)
{
    const std::vector<std::string> names = models::modelNames();
    const graph::Graph model =
        models::buildModel(names[static_cast<std::size_t>(
                               state.range(0))],
                           512);
    const core::PartitionProblem problem(model);
    const hw::Hierarchy hierarchy(hw::heterogeneousTpuArray());
    const auto strategy = strategies::makeStrategy("accpar");
    for (auto _ : state) {
        benchmark::DoNotOptimize(strategy->plan(problem, hierarchy));
    }
    state.SetLabel(model.name());
}
BENCHMARK(BM_PlanModel)->DenseRange(0, 8);

void
BM_SimulateStep(benchmark::State &state)
{
    const graph::Graph model = models::buildResnet(50, 512);
    const core::PartitionProblem problem(model);
    const hw::Hierarchy hierarchy(hw::heterogeneousTpuArray());
    const auto strategy = strategies::makeStrategy("accpar");
    const core::PartitionPlan plan = strategy->plan(problem, hierarchy);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            sim::simulatePlan(problem, 512, hierarchy, plan));
    }
}
BENCHMARK(BM_SimulateStep);

/**
 * Sequential vs parallel planning engine on the Figure 8 style
 * hierarchy sweep: all four strategies on vgg16 across hierarchy levels
 * 2..6, planned through planAll with --jobs style concurrency. The
 * "speedup" counter is wall-clock relative to the jobs=1 run of the
 * same process (Arg(1) runs first); plans are bit-identical across
 * jobs, so only the wall clock moves. Memoization is off here to keep
 * the measurement about parallelism alone.
 */
void
BM_HierarchySweepJobs(benchmark::State &state)
{
    static double baseline_seconds = 0.0;
    const int jobs = static_cast<int>(state.range(0));

    const graph::Graph model = models::buildModel("vgg16", 256);
    const core::PartitionProblem problem(model);
    std::vector<hw::Hierarchy> hierarchies;
    for (int levels = 2; levels <= 6; ++levels)
        hierarchies.emplace_back(
            hw::heterogeneousTpuArrayForLevels(levels));
    const auto strategies_list = strategies::defaultStrategies();

    util::ThreadPool pool(jobs);
    const core::SolveContext context{jobs > 1 ? &pool : nullptr,
                                     nullptr};

    double total_seconds = 0.0;
    std::int64_t iterations = 0;
    for (auto _ : state) {
        const auto start = std::chrono::steady_clock::now();
        for (const hw::Hierarchy &hierarchy : hierarchies)
            benchmark::DoNotOptimize(strategies::planAll(
                strategies_list, problem, hierarchy, context));
        total_seconds +=
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        ++iterations;
    }

    const double mean = total_seconds / static_cast<double>(iterations);
    if (jobs == 1)
        baseline_seconds = mean;
    state.counters["jobs"] = jobs;
    state.counters["speedup"] =
        baseline_seconds > 0.0 && mean > 0.0 ? baseline_seconds / mean
                                             : 0.0;
}
BENCHMARK(BM_HierarchySweepJobs)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

/**
 * What the memo cache buys on repeated planning of one request (the
 * sweep/compare reuse pattern): cold = fresh cache every iteration,
 * warm = one persistent cache. The "hit_rate" counter reports the warm
 * cache's steady-state hit fraction.
 */
void
BM_MemoizedPlanning(benchmark::State &state)
{
    const bool warm = state.range(0) == 1;
    const graph::Graph model = models::buildModel("resnet50", 256);
    const core::PartitionProblem problem(model);
    const hw::Hierarchy hierarchy(hw::heterogeneousTpuArrayForLevels(4));
    const auto strategy = strategies::makeStrategy("accpar");

    core::CostCache shared;
    for (auto _ : state) {
        core::CostCache fresh;
        const core::SolveContext context{nullptr,
                                         warm ? &shared : &fresh};
        benchmark::DoNotOptimize(
            strategy->plan(problem, hierarchy, context));
    }
    state.SetLabel(warm ? "warm-cache" : "cold-cache");
    if (warm)
        state.counters["hit_rate"] = shared.stats().hitRate();
}
BENCHMARK(BM_MemoizedPlanning)->Arg(0)->Arg(1);

void
BM_CondenseModel(benchmark::State &state)
{
    const graph::Graph model = models::buildResnet(50, 512);
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::PartitionProblem(model));
    }
}
BENCHMARK(BM_CondenseModel);

} // namespace

BENCHMARK_MAIN();

/**
 * @file
 * Cross-cutting property tests: invariants that must hold across the
 * whole pipeline for randomized models, hardware and configurations.
 */

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "core/dp_kernel.h"
#include "core/hierarchical_solver.h"
#include "core/plan_evaluator.h"
#include "hw/hierarchy.h"
#include "models/zoo.h"
#include "sim/training_sim.h"
#include "strategies/accpar_strategy.h"
#include "strategies/registry.h"
#include "util/rng.h"

namespace {

using namespace accpar;
using PT = core::PartitionType;

graph::Graph
randomMlp(util::Rng &rng)
{
    std::vector<std::int64_t> widths;
    const int layers = static_cast<int>(rng.uniformInt(2, 6));
    for (int i = 0; i <= layers; ++i)
        widths.push_back(rng.uniformInt(8, 512));
    return models::buildMlp(rng.uniformInt(8, 256), widths);
}

TEST(Property, LargerSearchSpaceNeverCostsMore)
{
    // Adding Type-III to the allowed set can only improve (or match)
    // the DP's modeled optimum — on any model and pair.
    util::Rng rng(321);
    for (int trial = 0; trial < 20; ++trial) {
        const core::PartitionProblem problem(randomMlp(rng));
        core::PairCostModel model(
            {rng.uniformDouble(1e12, 1e15), rng.uniformDouble(1e8,
                                                              1e11)},
            {rng.uniformDouble(1e12, 1e15), rng.uniformDouble(1e8,
                                                              1e11)},
            core::CostModelConfig{});
        model.setAlpha(rng.uniformDouble(0.1, 0.9));

        core::TypeRestrictions two(problem.condensed().size(),
                                   {PT::TypeI, PT::TypeII});
        core::DpKernel kernel(problem.dpStructure(), problem.baseDims());
        const double cost_two = kernel.solve(model, two).cost;
        const double cost_three =
            kernel
                .solve(model,
                       core::unrestrictedTypes(problem.condensed()))
                .cost;
        EXPECT_LE(cost_three, cost_two * (1 + 1e-12));
    }
}

TEST(Property, DpCostDecreasesMonotonicallyInBandwidth)
{
    // Scaling both links up can only shrink the Time-objective optimum.
    util::Rng rng(654);
    const core::PartitionProblem problem(randomMlp(rng));
    const auto solve = [&](double link_scale) {
        core::PairCostModel model({1e14, link_scale * 1e9},
                                  {2e14, link_scale * 2e9},
                                  core::CostModelConfig{});
        model.setAlpha(0.4);
        core::DpKernel kernel(problem.dpStructure(), problem.baseDims());
        return kernel
            .solve(model, core::unrestrictedTypes(problem.condensed()))
            .cost;
    };
    double previous = solve(0.5);
    for (double scale : {1.0, 2.0, 4.0, 8.0}) {
        const double cost = solve(scale);
        EXPECT_LE(cost, previous * (1 + 1e-12)) << scale;
        previous = cost;
    }
}

TEST(Property, SimulatedAccParNeverLosesToForcedSingleTypes)
{
    // The searched plan should beat (or match) each all-one-type plan
    // under its own cost model; under the simulator it should at least
    // never lose to all of them simultaneously.
    util::Rng rng(987);
    const graph::Graph model = models::buildMlp(
        256, {1024, 2048, 1024, 512});
    const hw::Hierarchy hier(hw::AcceleratorGroup(
        {hw::GroupSlice{hw::tpuV2(), 4}, hw::GroupSlice{hw::tpuV3(),
                                                        4}}));
    const core::PartitionProblem problem(model);

    const auto accpar = strategies::makeStrategy("accpar");
    const double searched =
        sim::simulatePlan(problem, 256, hier,
                          accpar->plan(problem, hier))
            .stepTime;

    double best_forced = 1e100;
    for (PT t : core::kAllPartitionTypes) {
        core::SolverOptions options;
        options.ratioPolicy = core::RatioPolicy::Fixed;
        options.allowedTypes = [t](const core::CondensedNode &) {
            return std::vector<PT>{t};
        };
        const auto plan = core::solveHierarchy(problem, hier, options);
        best_forced = std::min(
            best_forced,
            sim::simulatePlan(problem, 256, hier, plan).stepTime);
    }
    EXPECT_LT(searched, best_forced * 1.10);
}

TEST(Property, PhaseBreakdownSumsToTotals)
{
    const graph::Graph model = models::buildAlexnet(128);
    const core::PartitionProblem problem(model);
    const hw::Hierarchy hier(hw::heterogeneousTpuArrayForLevels(3));
    for (const auto &s : strategies::defaultStrategies()) {
        const auto run = sim::simulateStrategy(model, hier, *s);
        double flops = 0.0, net = 0.0;
        for (int p = 0; p < sim::kPhaseCount; ++p) {
            flops += run.timing.phaseFlops[p];
            net += run.timing.phaseNetworkBytes[p];
        }
        EXPECT_NEAR(flops, run.timing.totalFlops,
                    1e-6 * run.timing.totalFlops)
            << s->name();
        EXPECT_NEAR(net, run.timing.totalNetworkBytes,
                    1e-6 * (1.0 + run.timing.totalNetworkBytes))
            << s->name();
    }
}

TEST(Property, DataParallelNetworkIsAllGradientPhase)
{
    const graph::Graph model = models::buildVgg(11, 128);
    const hw::Hierarchy hier(hw::AcceleratorGroup(hw::tpuV3(), 4));
    const auto run = sim::simulateStrategy(
        model, hier, *strategies::makeStrategy("dp"));
    const auto &net = run.timing.phaseNetworkBytes;
    EXPECT_GT(net[static_cast<int>(sim::Phase::Gradient)], 0.0);
    EXPECT_DOUBLE_EQ(net[static_cast<int>(sim::Phase::Forward)], 0.0);
    EXPECT_DOUBLE_EQ(net[static_cast<int>(sim::Phase::Backward)], 0.0);
}

TEST(Property, BruteForceAgreesWithDpOnRandomMlps)
{
    // A second, independent brute-force sweep at the full-pipeline
    // level (PartitionProblem instead of hand-built graphs).
    util::Rng rng(1212);
    for (int trial = 0; trial < 10; ++trial) {
        std::vector<std::int64_t> widths;
        const int layers = static_cast<int>(rng.uniformInt(2, 7));
        for (int i = 0; i <= layers; ++i)
            widths.push_back(rng.uniformInt(4, 128));
        const core::PartitionProblem problem(
            models::buildMlp(rng.uniformInt(4, 64), widths));

        core::PairCostModel model(
            {rng.uniformDouble(1e12, 1e15),
             rng.uniformDouble(1e8, 1e11)},
            {rng.uniformDouble(1e12, 1e15),
             rng.uniformDouble(1e8, 1e11)},
            core::CostModelConfig{});
        model.setAlpha(rng.uniformDouble(0.1, 0.9));
        const auto allowed =
            core::unrestrictedTypes(problem.condensed());

        core::DpKernel kernel(problem.dpStructure(), problem.baseDims());
        const auto dp = kernel.solve(model, allowed);
        const auto bf = core::bruteForceSearch(problem.condensed(),
                                               problem.baseDims(),
                                               model, allowed);
        EXPECT_NEAR(dp.cost, bf.cost, 1e-9 * (1.0 + bf.cost));
    }
}

} // namespace

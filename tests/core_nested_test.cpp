/**
 * @file
 * Nested series-parallel structures: a residual block whose non-identity
 * path itself contains a residual block. Not produced by any zoo model,
 * but within the decomposition's and multi-path DP's contract — the DP
 * must still match brute force exactly.
 */

#include <gtest/gtest.h>

#include "core/brute_force.h"
#include "core/dp_kernel.h"
#include "core/hierarchical_solver.h"
#include "hw/hierarchy.h"
#include "sim/training_sim.h"
#include "strategies/registry.h"
#include "util/rng.h"

namespace {

using namespace accpar;
using namespace accpar::core;

/**
 * cv0 -> [ inner-residual( cv1 -> [cv2a, cv2b | id] -> add_i -> cv3 )
 *          | id ] -> add_o -> fc
 */
graph::Graph
nestedResidual(std::int64_t width)
{
    graph::Graph g("nested");
    auto in = g.addInput("data", graph::TensorShape(8, width, 4, 4));
    auto cv0 = g.addConv("cv0", in,
                         graph::ConvAttrs{width, 3, 3, 1, 1, 1, 1});

    auto p = g.addConv("cv1", cv0,
                       graph::ConvAttrs{width, 3, 3, 1, 1, 1, 1});
    auto q = g.addConv("cv2a", p,
                       graph::ConvAttrs{width, 3, 3, 1, 1, 1, 1});
    q = g.addConv("cv2b", q, graph::ConvAttrs{width, 3, 3, 1, 1, 1, 1});
    auto add_i = g.addAdd("add_i", q, p);
    auto tail = g.addConv("cv3", add_i,
                          graph::ConvAttrs{width, 3, 3, 1, 1, 1, 1});

    auto add_o = g.addAdd("add_o", tail, cv0);
    auto flat = g.addFlatten("flat", add_o);
    g.addFullyConnected("fc", flat, 10);
    g.validate();
    return g;
}

TEST(Nested, DecompositionNestsParallelElements)
{
    const PartitionProblem problem(nestedResidual(8));
    // Top chain: cv0, P(add_o), fc.
    ASSERT_EQ(problem.chain().elements.size(), 3u);
    const Element &outer = problem.chain().elements[1];
    ASSERT_TRUE(outer.isParallel());

    bool found_inner = false;
    for (const Chain &path : outer.paths) {
        for (const Element &e : path.elements)
            if (e.isParallel()) {
                found_inner = true;
                EXPECT_EQ(e.paths.size(), 2u);
            }
    }
    EXPECT_TRUE(found_inner);
}

TEST(Nested, DpMatchesBruteForce)
{
    util::Rng rng(31337);
    const PartitionProblem problem(nestedResidual(16));
    for (int trial = 0; trial < 10; ++trial) {
        PairCostModel model(
            {rng.uniformDouble(1e12, 1e15),
             rng.uniformDouble(1e8, 1e11)},
            {rng.uniformDouble(1e12, 1e15),
             rng.uniformDouble(1e8, 1e11)},
            CostModelConfig{});
        model.setAlpha(rng.uniformDouble(0.1, 0.9));
        const auto allowed =
            unrestrictedTypes(problem.condensed());
        DpKernel kernel(problem.dpStructure(), problem.baseDims());
        const auto dp = kernel.solve(model, allowed);
        const auto bf = bruteForceSearch(problem.condensed(),
                                         problem.baseDims(), model,
                                         allowed);
        EXPECT_NEAR(dp.cost, bf.cost, 1e-9 * (1.0 + bf.cost));
        EXPECT_NEAR(dp.cost,
                    evaluateAssignment(problem.condensed(),
                                       problem.baseDims(), model,
                                       dp.types),
                    1e-9 * (1.0 + dp.cost));
    }
}

TEST(Nested, FullPipelineRuns)
{
    const graph::Graph model = nestedResidual(16);
    const hw::Hierarchy hier(hw::AcceleratorGroup(
        {hw::GroupSlice{hw::tpuV2(), 2}, hw::GroupSlice{hw::tpuV3(),
                                                        2}}));
    for (const auto &s : strategies::defaultStrategies()) {
        const auto run = sim::simulateStrategy(model, hier, *s);
        EXPECT_GT(run.throughput, 0.0) << s->name();
    }
}

} // namespace

/**
 * @file
 * Correctness of the layer-wise DP (Eq. 9) and the multi-path extension
 * (§5.2): on randomized chain and fork/join models the DP must return
 * exactly the brute-force optimum of the same objective, for random
 * rates, ratios, objectives and type restrictions.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/brute_force.h"
#include "core/chain_dp.h"
#include "core/condensed_graph.h"
#include "core/dp_kernel.h"
#include "core/hierarchical_solver.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace {

using namespace accpar;
using namespace accpar::core;
using accpar::util::Rng;

/** Random linear FC model with @p layers weighted layers. */
graph::Graph
randomChain(Rng &rng, int layers)
{
    graph::Graph g("chain");
    auto x = g.addInput(
        "data",
        graph::TensorShape(rng.uniformInt(2, 64), rng.uniformInt(2, 64)));
    for (int i = 0; i < layers; ++i) {
        x = g.addFullyConnected("fc" + std::to_string(i), x,
                                rng.uniformInt(2, 64));
        if (rng.chance(0.5))
            x = g.addRelu("relu" + std::to_string(i), x);
    }
    return g;
}

/**
 * Random fork/join FC model: a chain interrupted by residual-style
 * blocks whose shortcut path is an identity (Add requires matching
 * shapes, so block layers preserve the width).
 */
graph::Graph
randomForkJoin(Rng &rng, int blocks)
{
    graph::Graph g("forkjoin");
    const std::int64_t width = rng.uniformInt(4, 32);
    auto x = g.addInput(
        "data", graph::TensorShape(rng.uniformInt(2, 32), width));
    x = g.addFullyConnected("stem", x, width);
    for (int b = 0; b < blocks; ++b) {
        const std::string tag = std::to_string(b);
        auto branch = x;
        const int depth = static_cast<int>(rng.uniformInt(1, 2));
        for (int i = 0; i < depth; ++i) {
            branch = g.addFullyConnected(
                "b" + tag + "_fc" + std::to_string(i), branch, width);
        }
        x = g.addAdd("add" + tag, branch, x);
        if (rng.chance(0.5))
            x = g.addRelu("r" + tag, x);
    }
    g.addFullyConnected("head", x, rng.uniformInt(2, 16));
    return g;
}

CostModelConfig
randomConfig(Rng &rng)
{
    CostModelConfig config;
    if (rng.chance(0.3)) {
        config.objective = ObjectiveKind::CommAmount;
        config.reduce = PairReduce::Sum;
        config.includeCompute = false;
    } else {
        config.objective = ObjectiveKind::Time;
        config.reduce = rng.chance(0.5) ? PairReduce::Max
                                        : PairReduce::Sum;
        config.includeCompute = rng.chance(0.8);
    }
    return config;
}

PairCostModel
randomModel(Rng &rng, const CostModelConfig &config)
{
    const GroupRates left{rng.uniformDouble(1e3, 1e6),
                          rng.uniformDouble(1.0, 1e3)};
    const GroupRates right{rng.uniformDouble(1e3, 1e6),
                           rng.uniformDouble(1.0, 1e3)};
    PairCostModel model(left, right, config);
    model.setAlpha(rng.uniformDouble(0.05, 0.95));
    return model;
}

TypeRestrictions
randomRestrictions(Rng &rng, const CondensedGraph &graph)
{
    TypeRestrictions allowed = unrestrictedTypes(graph);
    if (rng.chance(0.5))
        return allowed;
    for (auto &types : allowed) {
        // Drop a random type (keep at least two so the search matters).
        types.erase(types.begin() +
                    static_cast<long>(rng.uniformInt(0, 2)));
    }
    return allowed;
}

/** One DP solve of @p problem at its unscaled dims. */
ChainDpResult
solveDp(const PartitionProblem &problem, const PairCostModel &cost,
        const TypeRestrictions &allowed)
{
    DpKernel kernel(problem.dpStructure(), problem.baseDims());
    return kernel.solve(cost, allowed);
}

void
expectDpMatchesBruteForce(const graph::Graph &model, Rng &rng)
{
    const PartitionProblem problem(model);
    const CondensedGraph &condensed = problem.condensed();
    const std::vector<LayerDims> &dims = problem.baseDims();

    const CostModelConfig config = randomConfig(rng);
    const PairCostModel cost = randomModel(rng, config);
    const TypeRestrictions allowed = randomRestrictions(rng, condensed);

    const ChainDpResult dp = solveDp(problem, cost, allowed);
    const BruteForceResult bf =
        bruteForceSearch(condensed, dims, cost, allowed);

    // The DP's reported cost must match a direct evaluation of its own
    // assignment, and equal the brute-force optimum.
    EXPECT_NEAR(dp.cost,
                evaluateAssignment(condensed, dims, cost, dp.types),
                1e-9 * (1.0 + dp.cost));
    EXPECT_NEAR(dp.cost, bf.cost, 1e-9 * (1.0 + bf.cost));
}

TEST(ChainDp, MatchesBruteForceOnRandomChains)
{
    Rng rng(2020);
    for (int trial = 0; trial < 60; ++trial) {
        const graph::Graph model =
            randomChain(rng, static_cast<int>(rng.uniformInt(1, 8)));
        expectDpMatchesBruteForce(model, rng);
    }
}

TEST(ChainDp, MatchesBruteForceOnRandomForkJoins)
{
    Rng rng(4242);
    for (int trial = 0; trial < 60; ++trial) {
        const graph::Graph model = randomForkJoin(
            rng, static_cast<int>(rng.uniformInt(1, 3)));
        expectDpMatchesBruteForce(model, rng);
    }
}

TEST(ChainDp, SingleLayerPicksCheapestIntra)
{
    // One FC layer, communication only: the DP must pick the type whose
    // Table-4 tensor is smallest.
    graph::Graph g("one");
    auto x = g.addInput("data", graph::TensorShape(64, 2));
    g.addFullyConnected("fc", x, 128);

    const PartitionProblem problem(g);

    CostModelConfig config;
    config.includeCompute = false;
    PairCostModel cost({1e6, 10.0}, {1e6, 10.0}, config);
    cost.setAlpha(0.5);

    const ChainDpResult dp = solveDp(
        problem, cost, unrestrictedTypes(problem.condensed()));
    // A(W)=256, A(F')=64*128, A(E)=64*2=128 -> Type-III is cheapest.
    EXPECT_EQ(dp.types[0], PartitionType::TypeIII);
}

TEST(ChainDp, FreeTransitionsAreExploited)
{
    // Two equal FC layers with tiny weights and huge activations would
    // pick Type-I for both; with compute off and a huge weight, II->III
    // style free transitions become attractive. Sanity: cost is never
    // negative and respects the zero-diagonal of Table 5.
    graph::Graph g("two");
    auto x = g.addInput("data", graph::TensorShape(4, 512));
    x = g.addFullyConnected("fc1", x, 512);
    g.addFullyConnected("fc2", x, 512);

    const PartitionProblem problem(g);

    CostModelConfig config;
    config.includeCompute = false;
    PairCostModel cost({1e6, 10.0}, {1e6, 10.0}, config);
    cost.setAlpha(0.5);
    const ChainDpResult dp = solveDp(
        problem, cost, unrestrictedTypes(problem.condensed()));
    // A(W) = 512*512 dominates A(F') = 4*512: model parallelism wins,
    // and the II->III transition between the layers is free.
    EXPECT_NE(dp.types[0], PartitionType::TypeI);
    EXPECT_NE(dp.types[1], PartitionType::TypeI);
    EXPECT_GT(dp.cost, 0.0);
}

TEST(ChainDp, RestrictionsAreHonored)
{
    Rng rng(7);
    const graph::Graph model = randomForkJoin(rng, 2);
    const PartitionProblem problem(model);

    TypeRestrictions only_one(problem.condensed().size(),
                              {PartitionType::TypeII});
    PairCostModel cost({1e6, 10.0}, {1e6, 10.0}, CostModelConfig{});
    cost.setAlpha(0.5);
    const ChainDpResult dp = solveDp(problem, cost, only_one);
    for (PartitionType t : dp.types)
        EXPECT_EQ(t, PartitionType::TypeII);
}

TEST(BruteForce, RefusesLargeGraphs)
{
    const CondensedGraph condensed(
        CondensedGraph(accpar::graph::Graph([] {
            graph::Graph g("big");
            auto x = g.addInput("data", graph::TensorShape(2, 2));
            for (int i = 0; i < 20; ++i)
                x = g.addFullyConnected("fc" + std::to_string(i), x, 2);
            return g;
        }())));
    std::vector<LayerDims> dims;
    for (const CondensedNode &n : condensed.nodes())
        dims.push_back(n.dims);
    PairCostModel cost({1e6, 10.0}, {1e6, 10.0}, CostModelConfig{});
    EXPECT_THROW(bruteForceSearch(condensed, dims, cost,
                                  unrestrictedTypes(condensed)),
                 accpar::util::ConfigError);
}

TEST(EvaluateAssignment, CountsEveryEdgeOnce)
{
    Rng rng(99);
    const graph::Graph model = randomForkJoin(rng, 1);
    const CondensedGraph condensed(model);
    std::vector<LayerDims> dims;
    for (const CondensedNode &n : condensed.nodes())
        dims.push_back(n.dims);

    CostModelConfig config;
    config.objective = ObjectiveKind::CommAmount;
    config.reduce = PairReduce::Sum;
    config.includeCompute = false;
    PairCostModel cost({1.0, 1.0}, {1.0, 1.0}, config);
    cost.setAlpha(0.5);

    // All Type-I: no inter-layer traffic at all, so the total is the sum
    // of Table-4 weight tensors (junctions excluded), counted once per
    // side.
    std::vector<PartitionType> all_i(condensed.size(),
                                     PartitionType::TypeI);
    double expected = 0.0;
    for (const CondensedNode &n : condensed.nodes())
        if (!n.junction)
            expected += 2.0 * n.dims.sizeWeight();
    EXPECT_NEAR(evaluateAssignment(condensed, dims, cost, all_i),
                expected, 1e-9);
}

} // namespace

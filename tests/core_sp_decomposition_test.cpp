/**
 * @file
 * Tests for the structural SP decomposition (graph/sp_decomposition.h)
 * and for planning graphs outside the legacy chain shape ("SP mode"):
 * decomposition shapes, totality invariants, the DP kernel against the
 * 3^N brute-force oracle on random DAGs, nested branches that close at
 * their parent's join, residual regions inside parallels, and the AG009
 * exact-enumeration bound. The SpSolver suite holds the SP-mode solves,
 * all through DpKernel over PartitionProblem.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/brute_force.h"
#include "core/dp_kernel.h"
#include "core/hierarchical_solver.h"
#include "core/planner.h"
#include "graph/sp_decomposition.h"
#include "hw/hierarchy.h"
#include "hw/topology.h"
#include "sim/training_sim.h"
#include "strategies/registry.h"
#include "support/graph_gen.h"
#include "util/error.h"
#include "util/rng.h"

namespace {

using namespace accpar;
using graph::SpKind;
using graph::SpTree;

/** Internal vertices owned by Series cuts and Residual sets must
 *  partition the DAG's internal vertex set (decomposition totality). */
void
expectTotalOwnership(const SpTree &tree, int vertices)
{
    if (tree.root() == graph::kNoSpNode) {
        EXPECT_EQ(vertices, 1);
        return;
    }
    std::size_t owned = 0;
    for (const graph::SpNode &node : tree.nodes()) {
        if (node.kind == SpKind::Series)
            ++owned;
        else if (node.kind == SpKind::Residual)
            owned += node.internal.size();
    }
    EXPECT_EQ(owned, static_cast<std::size_t>(vertices) - 2);
}

TEST(SpDecomposition, ChainDecomposesAsSeries)
{
    const SpTree tree =
        graph::decomposeSpTree({{1}, {2}, {3}, {}});
    ASSERT_NE(tree.root(), graph::kNoSpNode);
    EXPECT_TRUE(tree.seriesParallel());
    EXPECT_EQ(tree.node(tree.root()).kind, SpKind::Series);
    EXPECT_EQ(tree.node(tree.root()).source, 0);
    EXPECT_EQ(tree.node(tree.root()).sink, 3);
    expectTotalOwnership(tree, 4);
}

TEST(SpDecomposition, DiamondDecomposesAsParallel)
{
    const SpTree tree =
        graph::decomposeSpTree({{1, 2}, {3}, {3}, {}});
    EXPECT_TRUE(tree.seriesParallel());
    EXPECT_EQ(tree.node(tree.root()).kind, SpKind::Parallel);
    expectTotalOwnership(tree, 4);
}

TEST(SpDecomposition, ParallelEdgesBecomeLeafBranches)
{
    const SpTree tree = graph::decomposeSpTree({{1, 1}, {}});
    EXPECT_TRUE(tree.seriesParallel());
    ASSERT_EQ(tree.node(tree.root()).kind, SpKind::Parallel);
    EXPECT_EQ(tree.node(tree.node(tree.root()).left).kind,
              SpKind::Leaf);
    EXPECT_EQ(tree.node(tree.node(tree.root()).right).kind,
              SpKind::Leaf);
}

TEST(SpDecomposition, BridgeBecomesResidual)
{
    // Wheatstone bridge: 0->1, 0->2, 1->2, 1->3, 2->3. No internal
    // vertex lies on every 0->3 path and {1, 2} stay connected, so
    // the region is one Residual with both internal vertices.
    const SpTree tree =
        graph::decomposeSpTree({{1, 2}, {2, 3}, {3}, {}});
    EXPECT_FALSE(tree.seriesParallel());
    EXPECT_EQ(tree.residualCount(), 1u);
    EXPECT_EQ(tree.maxResidualSize(), 2u);
    expectTotalOwnership(tree, 4);
}

TEST(SpDecomposition, SingleVertexHasEmptyTree)
{
    const SpTree tree = graph::decomposeSpTree({{}});
    EXPECT_EQ(tree.size(), 0u);
    EXPECT_EQ(tree.root(), graph::kNoSpNode);
    EXPECT_TRUE(tree.seriesParallel());
}

TEST(SpDecomposition, RejectsNonTopologicalEdges)
{
    EXPECT_THROW(graph::decomposeSpTree({{}, {0}}),
                 util::ConfigError);
}

/** The bridge of the linter tests, expressed as layers. */
graph::Graph
bridgeModel()
{
    graph::Graph g("bridge");
    const auto in = g.addInput("data", graph::TensorShape(8, 4, 1, 1));
    const auto a = g.addFullyConnected("a", in, 4);
    const auto b = g.addFullyConnected("b", a, 4);
    const auto c = g.addFullyConnected("c", a, 4);
    const auto d = g.addAdd("d", b, c);
    const auto e = g.addFullyConnected("e", c, 4);
    const auto f = g.addFullyConnected("f", d, 4);
    g.addAdd("g", e, f);
    return g;
}

/** Successor lists of a condensed graph (the decomposition input). */
std::vector<std::vector<int>>
successorsOf(const core::CondensedGraph &condensed)
{
    std::vector<std::vector<int>> succs(condensed.size());
    for (std::size_t v = 0; v < condensed.size(); ++v)
        for (core::CNodeId p :
             condensed.node(static_cast<core::CNodeId>(v)).preds)
            succs[static_cast<std::size_t>(p)].push_back(
                static_cast<int>(v));
    return succs;
}

/**
 * Solves @p problem once with a random cost model and random type
 * restrictions and checks the result against the 3^N brute force: the
 * cost is the optimum, and it is the cost of the returned assignment.
 */
void
expectKernelMatchesBruteForce(const core::PartitionProblem &problem,
                              util::Rng &rng, const std::string &where)
{
    const core::PairCostModel cost = testsupport::randomModel(rng);
    const core::TypeRestrictions allowed = testsupport::randomRestrictions(
        rng, problem.condensed().size());
    core::DpKernel kernel(problem.dpStructure(), problem.baseDims());
    const core::ChainDpResult dp = kernel.solve(cost, allowed);
    const core::BruteForceResult bf = core::bruteForceSearch(
        problem.condensed(), problem.baseDims(), cost, allowed);
    EXPECT_NEAR(dp.cost, bf.cost, 1e-9 * (1.0 + bf.cost)) << where;
    EXPECT_NEAR(core::evaluateAssignment(problem.condensed(),
                                         problem.baseDims(), cost,
                                         dp.types),
                dp.cost, 1e-9 * (1.0 + dp.cost))
        << where;
    for (std::size_t v = 0; v < dp.types.size(); ++v) {
        const auto &types = allowed[v];
        EXPECT_NE(std::find(types.begin(), types.end(), dp.types[v]),
                  types.end())
            << where << " node " << v;
    }
}

TEST(SpSolver, MatchesBruteForceOnRandomDags)
{
    // The flattened §5.2 composition (with exact enumeration inside
    // residual regions) must reproduce the 3^N optimum of the shared
    // objective on arbitrary DAG shapes, chain-shaped or not.
    util::Rng rng(20260807);
    int sp_mode = 0;
    for (int trial = 0; trial < 60; ++trial) {
        const graph::Graph model = testsupport::randomDag(
            rng, static_cast<int>(rng.uniformInt(3, 7)));
        const core::PartitionProblem problem(model);
        expectTotalOwnership(
            graph::decomposeSpTree(successorsOf(problem.condensed())),
            static_cast<int>(problem.condensed().size()));
        sp_mode += !problem.hasChain();
        expectKernelMatchesBruteForce(
            problem, rng,
            "trial " + std::to_string(trial) + " (" +
                std::to_string(problem.condensed().size()) +
                " condensed nodes, " +
                (problem.hasChain() ? "chain" : "sp") + ')');
    }
    EXPECT_GT(sp_mode, 10);
}

/**
 * A nested fork that closes at its parent's join: a forks to b and c,
 * b forks to d and e, and d, e and c all meet at one concat.
 */
graph::Graph
sharedJoinModel()
{
    graph::Graph g("shared-join");
    const auto in = g.addInput("data", graph::TensorShape(8, 4, 1, 1));
    const auto a = g.addFullyConnected("a", in, 4);
    const auto b = g.addFullyConnected("b", a, 4);
    const auto c = g.addFullyConnected("c", a, 4);
    const auto d = g.addFullyConnected("d", b, 4);
    const auto e = g.addFullyConnected("e", b, 4);
    const auto join = g.addConcat(
        "join", std::vector<graph::LayerId>{d, e, c});
    g.addFullyConnected("head", join, 4);
    return g;
}

TEST(SpSolver, SharedJoinMatchesBruteForce)
{
    const core::PartitionProblem problem(sharedJoinModel());
    EXPECT_FALSE(problem.hasChain());
    EXPECT_EQ(problem.dpStructure().maxResidualSize(), 0u);
    util::Rng rng(515);
    for (int trial = 0; trial < 20; ++trial)
        expectKernelMatchesBruteForce(problem, rng,
                                      "trial " + std::to_string(trial));
}

/**
 * A residual region as one branch of a parallel: the bridge of
 * bridgeModel between a and the final concat, beside a second branch
 * through h.
 */
graph::Graph
residualBranchModel()
{
    graph::Graph g("residual-branch");
    const auto in = g.addInput("data", graph::TensorShape(8, 4, 1, 1));
    const auto a = g.addFullyConnected("a", in, 4);
    const auto b = g.addFullyConnected("b", a, 4);
    const auto c = g.addFullyConnected("c", a, 4);
    const auto d = g.addAdd("d", b, c);
    const auto e = g.addFullyConnected("e", c, 4);
    const auto f = g.addFullyConnected("f", d, 4);
    const auto h = g.addFullyConnected("h", a, 4);
    const auto join = g.addConcat(
        "join", std::vector<graph::LayerId>{e, f, h});
    g.addFullyConnected("head", join, 4);
    return g;
}

TEST(SpSolver, ResidualBranchMatchesBruteForce)
{
    const core::PartitionProblem problem(residualBranchModel());
    EXPECT_FALSE(problem.hasChain());
    EXPECT_EQ(problem.dpStructure().maxResidualSize(), 5u);
    util::Rng rng(616);
    for (int trial = 0; trial < 20; ++trial)
        expectKernelMatchesBruteForce(problem, rng,
                                      "trial " + std::to_string(trial));
}

TEST(SpSolver, BridgePlansEndToEnd)
{
    // A non-chain model must flow through PartitionProblem, the
    // registered strategy and the simulator without special-casing.
    const graph::Graph model = bridgeModel();
    const core::PartitionProblem problem(model);
    EXPECT_FALSE(problem.hasChain());
    EXPECT_GT(problem.dpStructure().maxResidualSize(), 0u);

    const hw::Hierarchy hier(hw::AcceleratorGroup(
        {hw::GroupSlice{hw::tpuV2(), 2},
         hw::GroupSlice{hw::tpuV3(), 2}}));
    const auto strategy = strategies::makeStrategy("accpar");
    const auto plan = strategy->plan(problem, hier);
    const double step =
        sim::simulatePlan(problem, 8, hier, plan).stepTime;
    EXPECT_GT(step, 0.0);
}

/** The cross-rung ladder: one residual region with 2*rungs internal
 *  condensed nodes (see the linter test for the shape argument). */
graph::Graph
ladderModel(int rungs)
{
    graph::Graph g("ladder");
    const auto in = g.addInput("data", graph::TensorShape(8, 4, 1, 1));
    auto a = g.addFullyConnected("a", in, 4);
    auto u = g.addFullyConnected("u1", a, 4);
    auto v = g.addAdd("v1", a, u);
    for (int i = 2; i <= rungs; ++i) {
        const auto next_u =
            g.addFullyConnected("u" + std::to_string(i), u, 4);
        v = g.addAdd("v" + std::to_string(i), v, next_u);
        u = next_u;
    }
    g.addAdd("t", u, v);
    return g;
}

/** Expects @p fn to throw a ConfigError carrying AG009. */
template <typename Fn>
void
expectAg009(Fn &&fn, const std::string &where)
{
    try {
        fn();
        FAIL() << "expected AG009 from " << where;
    } catch (const util::ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("AG009"), std::string::npos)
            << where << ": " << e.what();
    }
}

TEST(SpSolver, OversizedResidualFailsWithStableDiagnostic)
{
    // Past kResidualExactLimit planning must refuse up front with
    // AG009 — never fall back to a silently approximate plan. The
    // problem refuses at construction, so does the Planner facade.
    const graph::Graph model = ladderModel(5);
    const core::CondensedGraph condensed(model);
    ASSERT_GT(graph::decomposeSpTree(successorsOf(condensed))
                  .maxResidualSize(),
              core::kResidualExactLimit);

    expectAg009([&] { const core::PartitionProblem problem(model); },
                "PartitionProblem");
    expectAg009(
        [&] {
            Planner planner;
            planner.plan(PlanRequest(model, hw::parseArraySpec("tpu-v3:2")));
        },
        "Planner::plan");
}

TEST(SpSolver, LadderWithinBoundStillMatchesOracle)
{
    // The same ladder one rung shorter sits inside the bound: 8
    // internal condensed nodes enumerate exactly.
    const core::PartitionProblem problem(ladderModel(4));
    ASSERT_FALSE(problem.hasChain());
    ASSERT_EQ(problem.dpStructure().maxResidualSize(), 8u);

    core::PairCostModel cost({1e14, 1e10}, {2e14, 5e9},
                             core::CostModelConfig{});
    cost.setAlpha(0.4);
    const core::TypeRestrictions allowed =
        core::unrestrictedTypes(problem.condensed());
    core::DpKernel kernel(problem.dpStructure(), problem.baseDims());
    const double sp = kernel.solve(cost, allowed).cost;
    const double bf = core::bruteForceSearch(problem.condensed(),
                                             problem.baseDims(), cost,
                                             allowed)
                          .cost;
    EXPECT_NEAR(sp, bf, 1e-9 * (1.0 + bf));
}

} // namespace

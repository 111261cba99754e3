/**
 * @file
 * Tests for condensation, the chain view of the flattened SP tree, and
 * the frozen post-dominator pass it replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/condensed_graph.h"
#include "core/hierarchical_solver.h"
#include "core/segment.h"
#include "models/zoo.h"
#include "support/legacy_segment.h"
#include "util/error.h"

namespace {

using namespace accpar;
using namespace accpar::core;

graph::Graph
residualPair()
{
    // Two chained residual blocks with identity shortcuts, mimicking a
    // ResNet stage: cv0 -> [cv1a,cv1b | id] -> add1 -> [cv2a,cv2b | id]
    // -> add2 -> fc.
    graph::Graph g("residual-pair");
    auto in = g.addInput("data", graph::TensorShape(4, 8, 8, 8));
    auto cv0 = g.addConv("cv0", in, graph::ConvAttrs{8, 3, 3, 1, 1, 1,
                                                     1});
    auto a = g.addConv("cv1a", cv0, graph::ConvAttrs{8, 3, 3, 1, 1, 1,
                                                     1});
    a = g.addConv("cv1b", a, graph::ConvAttrs{8, 3, 3, 1, 1, 1, 1});
    auto add1 = g.addAdd("add1", a, cv0);
    auto r1 = g.addRelu("relu1", add1);
    auto b = g.addConv("cv2a", r1, graph::ConvAttrs{8, 3, 3, 1, 1, 1, 1});
    b = g.addConv("cv2b", b, graph::ConvAttrs{8, 3, 3, 1, 1, 1, 1});
    auto add2 = g.addAdd("add2", b, r1);
    auto flat = g.addFlatten("flat", add2);
    g.addFullyConnected("fc", flat, 10);
    return g;
}

TEST(Condensed, LinearModelKeepsWeightedLayersOnly)
{
    const graph::Graph g = models::buildAlexnet(8);
    const CondensedGraph c(g);
    EXPECT_EQ(c.size(), 8u);
    for (const CondensedNode &n : c.nodes())
        EXPECT_FALSE(n.junction);
    // Chain edges only.
    EXPECT_EQ(c.edges().size(), 7u);
    EXPECT_EQ(c.node(c.source()).name, "cv1");
    EXPECT_EQ(c.node(c.sink()).name, "fc3");
}

TEST(Condensed, TransparentLayersForwardAnchors)
{
    const graph::Graph g = models::buildVgg(11, 4);
    const CondensedGraph c(g);
    EXPECT_EQ(c.size(), 11u);
    // Every non-sink node has exactly one successor in a linear model.
    for (const CondensedNode &n : c.nodes()) {
        if (&n != &c.nodes().back()) {
            EXPECT_EQ(n.succs.size(), 1u) << n.name;
        }
    }
}

TEST(Condensed, ResidualBlocksCreateJunctions)
{
    const CondensedGraph c(residualPair());
    // cv0, cv1a, cv1b, add1, cv2a, cv2b, add2, fc.
    EXPECT_EQ(c.size(), 8u);
    int junctions = 0;
    for (const CondensedNode &n : c.nodes())
        junctions += n.junction;
    EXPECT_EQ(junctions, 2);
}

TEST(Condensed, IdentityShortcutsBecomeDirectEdges)
{
    const CondensedGraph c(residualPair());
    // add1's preds must include both cv1b and cv0 (the shortcut).
    const CondensedNode *add1 = nullptr;
    for (const CondensedNode &n : c.nodes())
        if (n.name == "add1")
            add1 = &n;
    ASSERT_NE(add1, nullptr);
    EXPECT_EQ(add1->preds.size(), 2u);
    std::vector<std::string> pred_names;
    for (CNodeId p : add1->preds)
        pred_names.push_back(c.node(p).name);
    EXPECT_NE(std::find(pred_names.begin(), pred_names.end(), "cv0"),
              pred_names.end());
    EXPECT_NE(std::find(pred_names.begin(), pred_names.end(), "cv1b"),
              pred_names.end());
}

TEST(Condensed, JunctionDimsMatchJoinedTensor)
{
    const CondensedGraph c(residualPair());
    for (const CondensedNode &n : c.nodes()) {
        if (n.junction) {
            EXPECT_DOUBLE_EQ(n.dims.b, 4);
            EXPECT_DOUBLE_EQ(n.dims.di, 8);
            EXPECT_DOUBLE_EQ(n.dims.dOut, 8);
            EXPECT_DOUBLE_EQ(n.dims.spatialIn, 64);
        }
    }
}

TEST(Condensed, KindIsPreserved)
{
    const CondensedGraph c(residualPair());
    EXPECT_EQ(c.node(c.sink()).kind, graph::LayerKind::FullyConnected);
    EXPECT_EQ(c.node(c.source()).kind, graph::LayerKind::Conv);
}

TEST(Condensed, Resnet18HasExpectedStructure)
{
    const CondensedGraph c(graph::Graph(models::buildResnet(18, 4)));
    // 21 weighted layers + 8 junctions.
    EXPECT_EQ(c.size(), 29u);
    int junctions = 0;
    for (const CondensedNode &n : c.nodes())
        junctions += n.junction;
    EXPECT_EQ(junctions, 8);
}

TEST(PostDominators, ChainPointsToSuccessor)
{
    const CondensedGraph c(CondensedGraph(models::buildLenet(4)));
    const auto ipdom = legacy::immediatePostDominators(c);
    for (std::size_t i = 0; i + 1 < c.size(); ++i)
        EXPECT_EQ(ipdom[i], static_cast<CNodeId>(i + 1));
    EXPECT_EQ(ipdom.back(), c.sink());
}

TEST(PostDominators, ForkJoinsAtJunction)
{
    const CondensedGraph c(residualPair());
    const auto ipdom = legacy::immediatePostDominators(c);
    // cv0 forks into (cv1a..cv1b) and the shortcut; its ipdom is add1.
    CNodeId cv0 = -1, add1 = -1;
    for (std::size_t i = 0; i < c.size(); ++i) {
        if (c.node(static_cast<CNodeId>(i)).name == "cv0")
            cv0 = static_cast<CNodeId>(i);
        if (c.node(static_cast<CNodeId>(i)).name == "add1")
            add1 = static_cast<CNodeId>(i);
    }
    EXPECT_EQ(ipdom[cv0], add1);
}

TEST(Decompose, LinearChainIsAllSingles)
{
    const PartitionProblem problem(models::buildVgg(13, 4));
    const Chain &chain = problem.chain();
    EXPECT_EQ(chain.elements.size(), problem.condensed().size());
    for (const Element &e : chain.elements)
        EXPECT_FALSE(e.isParallel());
}

TEST(Decompose, ResidualPairYieldsTwoParallelElements)
{
    const PartitionProblem problem(residualPair());
    const CondensedGraph &c = problem.condensed();
    const Chain &chain = problem.chain();
    // cv0, P(add1), P(add2), fc.
    ASSERT_EQ(chain.elements.size(), 4u);
    EXPECT_FALSE(chain.elements[0].isParallel());
    EXPECT_TRUE(chain.elements[1].isParallel());
    EXPECT_TRUE(chain.elements[2].isParallel());
    EXPECT_FALSE(chain.elements[3].isParallel());

    const Element &block = chain.elements[1];
    ASSERT_EQ(block.paths.size(), 2u);
    // One path holds the two convolutions, the other is the identity.
    const std::size_t sizes[2] = {block.paths[0].elements.size(),
                                  block.paths[1].elements.size()};
    EXPECT_EQ(std::min(sizes[0], sizes[1]), 0u);
    EXPECT_EQ(std::max(sizes[0], sizes[1]), 2u);
    EXPECT_TRUE(c.node(block.node).junction);
}

TEST(Decompose, CoversEveryNodeExactlyOnce)
{
    for (const char *name :
         {"lenet", "alexnet", "vgg19", "resnet18", "resnet34",
          "resnet50"}) {
        const PartitionProblem problem(models::buildModel(name, 4));
        const CondensedGraph &c = problem.condensed();
        const auto covered = collectChainNodes(problem.chain());
        EXPECT_EQ(covered.size(), c.size()) << name;
        std::vector<bool> seen(c.size(), false);
        for (CNodeId id : covered) {
            EXPECT_FALSE(seen[id]) << name;
            seen[id] = true;
        }
    }
}

TEST(Decompose, Resnet50BottleneckPaths)
{
    const PartitionProblem problem(models::buildResnet(50, 4));
    const Chain &chain = problem.chain();
    int parallel = 0;
    int three_layer_paths = 0;
    for (const Element &e : chain.elements) {
        if (!e.isParallel())
            continue;
        ++parallel;
        for (const Chain &p : e.paths)
            if (p.elements.size() == 3)
                ++three_layer_paths;
    }
    EXPECT_EQ(parallel, 16); // 3 + 4 + 6 + 3 bottleneck blocks
    EXPECT_EQ(three_layer_paths, 16);
}

} // namespace

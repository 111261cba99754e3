/**
 * @file
 * Structural equality of the DP kernel's flattened SP tree with the
 * frozen post-dominator chain pass (tests/support/legacy_segment): on
 * every chain-shaped problem the chain view is the legacy chain element
 * by element and path by path, and hasChain() holds exactly when the
 * legacy pass succeeds — on catalog models, random series-parallel
 * networks and arbitrary random DAGs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/dp_kernel.h"
#include "core/hierarchical_solver.h"
#include "models/catalog.h"
#include "support/graph_gen.h"
#include "support/legacy_segment.h"
#include "util/error.h"
#include "util/rng.h"

namespace {

using namespace accpar;

void
expectSameChain(const core::Chain &flat, const core::Chain &legacy,
                const std::string &where)
{
    ASSERT_EQ(flat.elements.size(), legacy.elements.size()) << where;
    for (std::size_t i = 0; i < flat.elements.size(); ++i) {
        const core::Element &a = flat.elements[i];
        const core::Element &b = legacy.elements[i];
        const std::string at = where + " element " + std::to_string(i);
        EXPECT_EQ(a.node, b.node) << at;
        ASSERT_EQ(a.paths.size(), b.paths.size()) << at;
        for (std::size_t p = 0; p < a.paths.size(); ++p)
            expectSameChain(a.paths[p], b.paths[p],
                            at + " path " + std::to_string(p));
    }
}

/** Checks @p structure against the legacy pass; returns hasChain(). */
bool
expectMatchesLegacy(const core::DpStructure &structure,
                    const std::string &where)
{
    bool decomposes = true;
    core::Chain legacy;
    try {
        legacy = core::legacy::decomposeSeriesParallel(structure.graph());
    } catch (const util::Error &) {
        decomposes = false;
    }
    EXPECT_EQ(structure.hasChain(), decomposes) << where;
    if (decomposes && structure.hasChain())
        expectSameChain(structure.chainView(), legacy, where);
    return structure.hasChain();
}

TEST(Flattening, CatalogChainsEqualLegacy)
{
    for (const std::string &name : models::catalog().names()) {
        const models::ModelEntry &entry = models::catalog().entry(name);
        const auto accepts = [&entry](const std::string &key) {
            return std::find(entry.params.begin(), entry.params.end(),
                             key) != entry.params.end();
        };
        // Transformers at two depths: one block, and blocks in series.
        for (const char *depth : {"1", "3"}) {
            models::ModelParams params;
            params.set("batch", "8");
            if (accepts("depth"))
                params.set("depth", depth);
            const core::PartitionProblem problem(
                models::catalog().build(name, params));
            const std::string where =
                name + " (" + params.toString() + ")";
            ASSERT_TRUE(problem.hasChain()) << where;
            expectSameChain(problem.chain(),
                            core::legacy::decomposeSeriesParallel(
                                problem.condensed()),
                            where);
            if (!accepts("depth"))
                break;
        }
    }
}

TEST(Flattening, RandomSeriesParallelChainsEqualLegacy)
{
    util::Rng rng(20261016);
    for (int trial = 0; trial < 60; ++trial) {
        const core::PartitionProblem problem(
            testsupport::randomSeriesParallel(rng, trial));
        const std::string where = "trial " + std::to_string(trial);
        ASSERT_TRUE(problem.hasChain()) << where;
        expectSameChain(problem.chain(),
                        core::legacy::decomposeSeriesParallel(
                            problem.condensed()),
                        where);
    }
}

TEST(Flattening, HasChainExactlyWhenLegacyDecomposes)
{
    // Arbitrary DAGs: chains, shared joins, residual regions. The
    // structure is built directly so residual regions past the
    // enumeration bound (which PartitionProblem refuses with AG009)
    // are classified too; PartitionProblem::hasChain() is the
    // structure's.
    util::Rng rng(8086);
    int chains = 0;
    int others = 0;
    for (int trial = 0; trial < 400; ++trial) {
        const core::CondensedGraph condensed(testsupport::randomDag(
            rng, static_cast<int>(rng.uniformInt(2, 12))));
        const core::DpStructure structure(condensed);
        if (expectMatchesLegacy(structure,
                                "trial " + std::to_string(trial)))
            ++chains;
        else
            ++others;
    }
    EXPECT_GT(chains, 40);
    EXPECT_GT(others, 40);
}

TEST(Flattening, BackboneCoversEveryNodeOnce)
{
    util::Rng rng(77);
    for (int trial = 0; trial < 100; ++trial) {
        const core::CondensedGraph condensed(testsupport::randomDag(
            rng, static_cast<int>(rng.uniformInt(2, 12))));
        const core::DpStructure structure(condensed);
        std::vector<int> seen(condensed.size(), 0);
        for (const core::BackboneStep &step : structure.backbone()) {
            ++seen[static_cast<std::size_t>(step.node)];
            for (core::CNodeId v : step.region)
                ++seen[static_cast<std::size_t>(v)];
        }
        for (std::size_t v = 0; v < seen.size(); ++v)
            EXPECT_EQ(seen[v], 1) << "trial " << trial << " node " << v;
    }
}

} // namespace

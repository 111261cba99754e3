/**
 * @file
 * General-DAG frontend benchmark: catalog build, condensation, the
 * structural SP decomposition, and the DP kernel over its flattening
 * against the frozen legacy chain DP on the same graphs (transformers
 * vs the CNN zoo), plus the DOT export -> import -> plan round trip.
 *
 * Two hard gates make this a CI regression check (nonzero exit):
 *   - the kernel must reproduce the legacy chain DP bit for bit (cost
 *     and assignment) on every row — all of them are chain-shaped —
 *     and the export -> import round trip must replan byte-identically;
 *   - the structural decomposition must stay cheap: building the SP
 *     tree may not cost more than the solve it enables.
 */

#include <chrono>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/dp_kernel.h"
#include "core/hierarchical_solver.h"
#include "core/plan_io.h"
#include "graph/dot_export.h"
#include "graph/sp_decomposition.h"
#include "hw/hierarchy.h"
#include "models/catalog.h"
#include "models/import.h"
#include "support/legacy_dp.h"
#include "util/table.h"

namespace {

using namespace accpar;

constexpr int kWarmup = 1;
constexpr int kReps = 3;

/** Best-of-kReps wall time of @p fn, in nanoseconds. */
template <typename Fn>
double
bestNs(Fn &&fn)
{
    double best = 1e300;
    for (int rep = 0; rep < kWarmup + kReps; ++rep) {
        const auto start = std::chrono::steady_clock::now();
        fn();
        const double ns =
            std::chrono::duration<double, std::nano>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (rep >= kWarmup && ns < best)
            best = ns;
    }
    return best;
}

struct Row
{
    std::string name;
    std::vector<std::pair<std::string, std::string>> params;
};

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

} // namespace

int
main()
{
    const std::vector<Row> rows = {
        {"resnet50", {{"batch", "512"}}},
        {"googlenet", {{"batch", "512"}}},
        {"bert-base", {{"batch", "8"}}},
        {"gpt-decoder", {{"batch", "8"}}},
    };

    bench::BenchReport report("dag_frontend");
    util::Table table({"row", "nodes", "build ms", "sp-tree ms",
                       "kernel ms", "legacy dp ms", "roundtrip"});
    bool failed = false;

    const hw::Hierarchy hierarchy(
        hw::heterogeneousTpuArrayForLevels(3));

    for (const Row &row : rows) {
        models::ModelParams params;
        for (const auto &[key, value] : row.params)
            params.set(key, value);

        const double build_ns = bestNs(
            [&] { models::catalog().build(row.name, params); });
        const graph::Graph model =
            models::catalog().build(row.name, params);

        const core::PartitionProblem problem(model);
        const core::CondensedGraph &condensed = problem.condensed();
        const auto succs = successorsOf(condensed);
        const double decompose_ns =
            bestNs([&] { graph::decomposeSpTree(succs); });

        // One root-pair solve, kernel vs frozen legacy chain DP, on the
        // same cost model: same cost and assignment, bit for bit.
        const hw::HierarchyNode &root =
            hierarchy.node(hierarchy.root());
        const hw::AcceleratorGroup &lg =
            hierarchy.node(root.left).group;
        const hw::AcceleratorGroup &rg =
            hierarchy.node(root.right).group;
        core::PairCostModel cost(
            {lg.computeDensity(), lg.linkBandwidth()},
            {rg.computeDensity(), rg.linkBandwidth()},
            core::CostModelConfig{});
        cost.setAlpha(0.5);
        const core::TypeRestrictions allowed =
            core::unrestrictedTypes(condensed);

        core::DpKernel kernel(problem.dpStructure(), problem.baseDims());
        const double kernel_ns =
            bestNs([&] { kernel.solve(cost, allowed); });
        if (!problem.hasChain()) {
            std::cerr << "FAIL: " << row.name
                      << " lost its chain shape\n";
            failed = true;
            continue;
        }
        const double legacy_ns = bestNs([&] {
            core::legacy::solveChainDp(condensed, problem.chain(),
                                       problem.baseDims(), cost, allowed);
        });

        const core::ChainDpResult fast = kernel.solve(cost, allowed);
        const core::ChainDpResult reference = core::legacy::solveChainDp(
            condensed, problem.chain(), problem.baseDims(), cost, allowed);
        if (fast.cost != reference.cost || fast.types != reference.types) {
            std::cerr << "FAIL: kernel diverges from the legacy chain DP "
                         "on "
                      << row.name << " (" << fast.cost << " vs "
                      << reference.cost << ")\n";
            failed = true;
        }
        if (decompose_ns > kernel_ns && decompose_ns > legacy_ns) {
            std::cerr << "FAIL: SP decomposition ("
                      << decompose_ns / 1e6
                      << " ms) dominates the solve on " << row.name
                      << '\n';
            failed = true;
        }

        // Export -> import -> plan must replan byte-identically.
        const graph::Graph imported =
            models::importDot(graph::toDot(model));
        const core::SolverOptions options{};
        const std::string direct =
            core::planToJson(
                core::solveHierarchy(problem, hierarchy, options),
                hierarchy)
                .dump();
        const std::string replanned =
            core::planToJson(
                core::solveHierarchy(core::PartitionProblem(imported),
                                     hierarchy, options),
                hierarchy)
                .dump();
        const bool roundtrip = direct == replanned;
        if (!roundtrip) {
            std::cerr << "FAIL: import round trip diverges on "
                      << row.name << '\n';
            failed = true;
        }

        util::Json &metrics = report.addRow(row.name);
        metrics["condensed_nodes"] =
            static_cast<double>(condensed.size());
        metrics["build_ns"] = build_ns;
        metrics["sp_decompose_ns"] = decompose_ns;
        metrics["kernel_ns_per_solve"] = kernel_ns;
        metrics["legacy_dp_ns_per_solve"] = legacy_ns;
        metrics["kernel_over_legacy"] = kernel_ns / legacy_ns;
        metrics["roundtrip_identical"] = roundtrip ? 1.0 : 0.0;

        table.addRow(row.name,
                     {static_cast<double>(condensed.size()),
                      build_ns / 1e6, decompose_ns / 1e6,
                      kernel_ns / 1e6, legacy_ns / 1e6,
                      roundtrip ? 1.0 : 0.0},
                     3);
    }

    std::cout << "General-DAG frontend: decomposition + solver cost "
                 "(best of "
              << kReps << ")\n";
    table.print(std::cout);
    report.write();

    if (failed) {
        std::cerr << "FAIL: DAG frontend regression\n";
        return 1;
    }
    return 0;
}

/**
 * @file
 * The hierarchical partitioning solver: applies the layer-wise DP
 * recursively over the bi-partition tree of the accelerator array
 * (paper §5.1's hierarchical/recursive partitioning).
 *
 * At every internal hierarchy node the solver (1) builds the pair cost
 * model from the two child groups' aggregate rates, (2) runs the chain DP
 * for the current ratio, (3) re-solves the ratio per the configured
 * policy, iterating (2)-(3) to a bounded fixed point, and (4) recurses
 * into the children with the per-layer dimensions scaled by the chosen
 * types and ratio (Type-I scales B, Type-II scales D_i, Type-III scales
 * D_o; junctions scale their single channel dimension for both II and
 * III).
 */

#ifndef ACCPAR_CORE_HIERARCHICAL_SOLVER_H
#define ACCPAR_CORE_HIERARCHICAL_SOLVER_H

#include <functional>
#include <memory>

#include "core/chain_dp.h"
#include "core/condensed_graph.h"
#include "core/cost_cache.h"
#include "core/cost_model.h"
#include "core/plan.h"
#include "core/ratio_solver.h"
#include "core/segment.h"
#include "graph/graph.h"
#include "hw/hierarchy.h"
#include "util/thread_pool.h"

namespace accpar::core {

class PlanCertificate;
class DpStructure;

/** Per-node allowed-type policy; default allows all three types. */
using AllowedTypesFn =
    std::function<std::vector<PartitionType>(const CondensedNode &)>;

/**
 * Configuration of one hierarchical solve.
 *
 * Deprecated as a user-facing surface: this is the solver layer's
 * two-level view (search knobs here, cost knobs nested in `cost`) kept
 * so existing callers and tests compile unchanged. New code should
 * configure the flat accpar::PlanOptions (core/planner.h), which folds
 * both levels into one documented struct and converts via
 * PlanOptions::toSolverOptions / fromSolverOptions.
 */
struct SolverOptions
{
    CostModelConfig cost;
    RatioPolicy ratioPolicy = RatioPolicy::PaperLinear;
    /** Bounded fixed-point iterations of (DP, ratio) per node. */
    int ratioIterations = 3;
    /** Allowed types per condensed node; null means unrestricted. */
    AllowedTypesFn allowedTypes;
    /**
     * Integer-granularity constraint: a type is only searchable at a
     * level while the dimension it partitions keeps at least this many
     * units on each side after the split (a board cannot hold a fraction
     * of a batch sample or channel). 0 disables the check. When no
     * allowed type is feasible, the type with the largest partitionable
     * dimension is kept.
     */
    double minDimPerSide = 1.0;
    /** Strategy label recorded in the plan. */
    std::string strategyName = "accpar";
};

/**
 * Shared execution resources for one solve, all optional. Both members
 * are non-owning; the Planner facade wires them up for callers.
 *
 * - With a pool, sibling subtrees of the bi-partition hierarchy solve
 *   concurrently. The decisions of a subtree depend only on its
 *   ancestors' (type, ratio) choices, and every hierarchy node writes
 *   its own plan slot, so the result is bit-identical to the sequential
 *   solve regardless of thread count.
 * - With a memo cache, inter/intra-layer cost terms are reused across
 *   hierarchy nodes, strategies, and sweep points (see CostCache).
 */
struct SolveContext
{
    util::ThreadPool *pool = nullptr; ///< null => fully sequential
    CostCache *memo = nullptr;        ///< null => no cost memoization
    /**
     * When non-null, solveHierarchy re-initializes it for the run and
     * every internal hierarchy node records the evidence of its solve
     * (cost tables, Bellman rows, ratio bracket) into its own slot —
     * concurrent sibling solves stay race-free for the same reason
     * plan-slot writes do. See core/certificate.h.
     */
    PlanCertificate *certificate = nullptr;
};

/**
 * True when splitting @p t's dimension of @p dims at @p min_share (the
 * smaller of the two ratio shares) leaves at least @p min_dim units per
 * side.
 */
bool typeFeasible(const LayerDims &dims, bool junction, PartitionType t,
                  double min_share, double min_dim);

/**
 * A prepared partitioning problem: the condensed view of one model,
 * reusable across hierarchies and solver options.
 *
 * Construction decomposes the condensed graph into its SP tree
 * (graph/sp_decomposition.h) and flattens it into the DP kernel's
 * compiled structure, which solves every problem. Residual
 * (non-series-parallel) regions beyond kResidualExactLimit internal
 * nodes are rejected here with diagnostic AG009.
 */
class PartitionProblem
{
  public:
    explicit PartitionProblem(const graph::Graph &model);

    /** Non-copyable and non-movable: the compiled DP structure keeps a
     *  reference into the condensed graph. Share problems by
     *  reference (Planner::planBatch and solveHierarchyBatch do). */
    PartitionProblem(const PartitionProblem &) = delete;
    PartitionProblem &operator=(const PartitionProblem &) = delete;
    ~PartitionProblem();

    const CondensedGraph &condensed() const { return _condensed; }

    /** True when the compiled structure has the legacy chain shape
     *  (every zoo CNN and transformer): only edges and distinct-join
     *  parallels. Plan certificates require it. */
    bool hasChain() const { return _hasChain; }

    /** The legacy chain view of the compiled structure; ConfigError
     *  unless hasChain(). */
    const Chain &chain() const;

    /** The compiled structure every DpKernel over this problem
     *  borrows — one compilation per problem instead of one per
     *  hierarchy node. */
    const DpStructure &dpStructure() const { return *_dpStructure; }

    /** Unscaled dims per condensed node. */
    const std::vector<LayerDims> &baseDims() const { return _baseDims; }

    /** Condensed node names (for plan reporting). */
    std::vector<std::string> nodeNames() const;

  private:
    CondensedGraph _condensed;
    /** Compiled once in the constructor; the type stays incomplete
     *  here so the certificate checker's include graph never reaches
     *  the DP kernel (ALINT05). */
    std::unique_ptr<DpStructure> _dpStructure;
    bool _hasChain = false;
    Chain _chain;
    std::vector<LayerDims> _baseDims;
};

/** Solves the full hierarchy for @p problem. */
PartitionPlan solveHierarchy(const PartitionProblem &problem,
                             const hw::Hierarchy &hierarchy,
                             const SolverOptions &options);

/** Solves with shared execution resources (thread pool, memo cache). */
PartitionPlan solveHierarchy(const PartitionProblem &problem,
                             const hw::Hierarchy &hierarchy,
                             const SolverOptions &options,
                             const SolveContext &context);

/** Convenience wrapper building the problem from @p model. */
PartitionPlan solveHierarchy(const graph::Graph &model,
                             const hw::Hierarchy &hierarchy,
                             const SolverOptions &options);

/**
 * Solves @p problem against several hierarchy candidates in one call,
 * returning one plan per entry of @p hierarchies (in order). All
 * solves share the problem's compiled DP structure and the context's
 * memo cache; with a pool the candidates solve concurrently — each
 * candidate's plan is bit-identical to its own solveHierarchy call, so
 * batching only changes throughput. The search layer uses this to
 * score a lookahead set of annealing neighbors per oracle call.
 *
 * Certificate emission is per-solve evidence and is not batched:
 * @p context.certificate must be null (solve the winner again to emit).
 */
std::vector<PartitionPlan>
solveHierarchyBatch(const PartitionProblem &problem,
                    const std::vector<const hw::Hierarchy *> &hierarchies,
                    const SolverOptions &options,
                    const SolveContext &context);

/** The dimension scale factors a node's choice hands to a child group. */
struct DimScales
{
    double b = 1.0;
    double di = 1.0;
    double dOut = 1.0;
};

/**
 * Applies one level's (type, ratio) decision for one condensed node to
 * the child-group scales. Exposed for tests and the trace generator.
 */
DimScales childScales(const DimScales &scales, bool junction,
                      PartitionType type, double ratio);

/** Scales the base dims of @p problem by per-node @p scales. */
std::vector<LayerDims> scaledDims(const PartitionProblem &problem,
                                  const std::vector<DimScales> &scales);

} // namespace accpar::core

#endif // ACCPAR_CORE_HIERARCHICAL_SOLVER_H

/**
 * @file
 * Vocabulary of the layer-wise dynamic-programming search (paper §5.1,
 * Eq. 9) extended with the multi-path handling of §5.2: type
 * restrictions, the result of one solve, and the objective itself.
 *
 * For linear segments the DP is exactly Eq. 9: the accumulated cost of
 * layer L_{i+1} in state t is the minimum over the previous layer's
 * states tt of accumulated cost + computation cost + (intra- and
 * inter-layer) communication cost. At a parallel region, the transition
 * cost from the fork state tt to the join state t is the sum over paths
 * of each path's own minimal chain cost conditioned on the two endpoint
 * states — the procedure of Figure 4. An empty path (identity shortcut)
 * contributes the plain inter-layer conversion on the join tensor.
 *
 * The solver is core/dp_kernel.h. It is exact for the given cost model:
 * it reproduces the brute-force optimum of evaluateAssignment over all
 * 3^N assignments (verified by tests/core_dp_test).
 */

#ifndef ACCPAR_CORE_CHAIN_DP_H
#define ACCPAR_CORE_CHAIN_DP_H

#include <vector>

#include "core/condensed_graph.h"
#include "core/cost_model.h"
#include "core/segment.h"

namespace accpar::core {

/**
 * Explicit "no node" value for CNodeId parameters (the entry node of a
 * chain that starts the model, unresolved edge endpoints). Replaces the
 * bare -1 sentinel the DP used to pass around.
 */
inline constexpr CNodeId kNoEntryNode = -1;

/** Allowed partition types per condensed node (indexed by CNodeId). */
using TypeRestrictions = std::vector<std::vector<PartitionType>>;

/** Restriction allowing every type at every node (AccPar). */
TypeRestrictions unrestrictedTypes(const CondensedGraph &graph);

/** Result of one DP run at one hierarchy node. */
struct ChainDpResult
{
    /** Total accumulated cost of the optimal assignment. */
    double cost = 0.0;
    /** Chosen type per condensed node, indexed by CNodeId. */
    std::vector<PartitionType> types;
};

/**
 * Evaluates the cost of a fixed assignment directly on the condensed DAG
 * (sum of node costs plus inter-layer costs over every condensed edge,
 * with no charge into the source). The DP kernel minimizes exactly this
 * quantity; brute-force search enumerates it.
 */
double evaluateAssignment(const CondensedGraph &graph,
                          const std::vector<LayerDims> &dims,
                          const PairCostModel &model,
                          const std::vector<PartitionType> &types);

} // namespace accpar::core

#endif // ACCPAR_CORE_CHAIN_DP_H

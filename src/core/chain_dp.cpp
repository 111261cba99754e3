#include "core/chain_dp.h"

#include <algorithm>

#include "util/error.h"

namespace accpar::core {

TypeRestrictions
unrestrictedTypes(const CondensedGraph &graph)
{
    TypeRestrictions out(graph.size());
    for (std::size_t i = 0; i < graph.size(); ++i)
        out[i].assign(kAllPartitionTypes.begin(), kAllPartitionTypes.end());
    return out;
}

double
evaluateAssignment(const CondensedGraph &graph,
                   const std::vector<LayerDims> &dims,
                   const PairCostModel &model,
                   const std::vector<PartitionType> &types)
{
    ACCPAR_REQUIRE(types.size() == graph.size(),
                   "assignment size mismatch");
    double total = 0.0;
    for (std::size_t v = 0; v < graph.size(); ++v) {
        const CondensedNode &node = graph.node(static_cast<CNodeId>(v));
        total += model.nodeCost(static_cast<CNodeId>(v), dims[v],
                                node.junction, types[v]);
        for (CNodeId u : node.preds) {
            const double boundary = std::min(dims[u].sizeOutput(),
                                             dims[v].sizeInput());
            total += model.transitionCost(u, types[u], types[v], boundary);
        }
    }
    return total;
}

} // namespace accpar::core

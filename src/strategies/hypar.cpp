#include "strategies/hypar.h"

#include <memory>
#include <unordered_set>

#include "core/dp_kernel.h"

namespace accpar::strategies {

core::PartitionPlan
HyPar::plan(const core::PartitionProblem &problem,
            const hw::Hierarchy &hierarchy,
            const core::SolveContext &context) const
{
    // HyPar "can only handle DNN architectures with linear structure"
    // (paper §1/§3.5). Nodes inside multi-path regions — the residual
    // blocks of ResNet — are beyond its search and fall back to data
    // parallelism (Type-I); only the linear backbone is searched. A
    // backbone node reached through a region (parallel or residual) is
    // a join, off the linear backbone together with the region itself.
    // The allowed-types callback receives nodes, so match on the
    // originating layer id.
    auto multipath_layers =
        std::make_shared<std::unordered_set<graph::LayerId>>();
    for (const core::BackboneStep &step :
         problem.dpStructure().backbone()) {
        if (step.region.empty())
            continue;
        multipath_layers->insert(problem.condensed().node(step.node).layer);
        for (core::CNodeId id : step.region)
            multipath_layers->insert(problem.condensed().node(id).layer);
    }

    core::SolverOptions options;
    options.strategyName = name();
    options.ratioPolicy = core::RatioPolicy::Fixed;
    options.cost = costConfig();
    options.allowedTypes =
        [multipath_layers](const core::CondensedNode &node) {
            if (multipath_layers->count(node.layer)) {
                return std::vector<core::PartitionType>{
                    core::PartitionType::TypeI};
            }
            return std::vector<core::PartitionType>{
                core::PartitionType::TypeI, core::PartitionType::TypeII};
        };
    return core::solveHierarchy(problem, hierarchy, options, context);
}

} // namespace accpar::strategies

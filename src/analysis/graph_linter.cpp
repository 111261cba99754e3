#include "analysis/graph_linter.h"

#include <map>
#include <sstream>
#include <vector>

#include "core/condensed_graph.h"
#include "core/dp_kernel.h"
#include "graph/shape_inference.h"
#include "util/error.h"

namespace accpar::analysis {

namespace {

std::string
layerLocation(const graph::Layer &layer)
{
    std::ostringstream os;
    os << "layer '" << layer.name << "' (#" << layer.id << ", "
       << graph::layerKindName(layer.kind) << ')';
    return os.str();
}

void
lintDuplicateNames(const graph::Graph &graph, DiagnosticSink &sink)
{
    std::map<std::string, int> seen;
    for (const graph::Layer &layer : graph.layers()) {
        if (++seen[layer.name] == 2) {
            sink.error("AG001", layerLocation(layer),
                       "layer name '" + layer.name +
                           "' is used by more than one layer",
                       "give every layer a unique name");
        }
    }
}

void
lintDegenerateDims(const graph::Graph &graph, DiagnosticSink &sink)
{
    for (const graph::Layer &layer : graph.layers()) {
        const graph::TensorShape &s = layer.outputShape;
        if (s.n < 1 || s.c < 1 || s.h < 1 || s.w < 1) {
            sink.error("AG002", layerLocation(layer),
                       "degenerate output shape " + s.toString() +
                           " — every dimension must be at least 1",
                       "check batch size, channel counts and "
                       "stride/padding attributes");
        }
    }
}

void
lintInputAndSinks(const graph::Graph &graph, DiagnosticSink &sink)
{
    std::vector<graph::LayerId> inputs;
    std::vector<graph::LayerId> sinks;
    for (const graph::Layer &layer : graph.layers()) {
        if (layer.kind == graph::LayerKind::Input)
            inputs.push_back(layer.id);
        if (graph.consumers(layer.id).empty())
            sinks.push_back(layer.id);
    }
    if (inputs.size() != 1) {
        sink.error("AG004", "model '" + graph.name() + "'",
                   "expected exactly one Input layer, found " +
                       std::to_string(inputs.size()),
                   "merge the model into a single-input graph");
    }
    if (sinks.size() != 1 && !graph.empty()) {
        for (graph::LayerId id : sinks) {
            sink.error("AG005", layerLocation(graph.layer(id)),
                       "graph has " + std::to_string(sinks.size()) +
                           " sink layers; exactly one layer may be "
                           "left unconsumed",
                       "route every dangling output into the final "
                       "layer, or remove dead layers");
        }
    }

    // AG003: reachability from the (first) input over consumer edges.
    if (inputs.empty())
        return;
    std::vector<bool> reachable(graph.size(), false);
    std::vector<graph::LayerId> stack = {inputs.front()};
    reachable[static_cast<std::size_t>(inputs.front())] = true;
    while (!stack.empty()) {
        const graph::LayerId id = stack.back();
        stack.pop_back();
        for (graph::LayerId next : graph.consumers(id)) {
            if (!reachable[static_cast<std::size_t>(next)]) {
                reachable[static_cast<std::size_t>(next)] = true;
                stack.push_back(next);
            }
        }
    }
    for (const graph::Layer &layer : graph.layers()) {
        if (layer.kind == graph::LayerKind::Input)
            continue;
        if (!reachable[static_cast<std::size_t>(layer.id)]) {
            sink.error("AG003", layerLocation(layer),
                       "layer is not reachable from the model input",
                       "remove the dead layer or connect it to the "
                       "input path");
        }
    }
}

void
lintShapeConsistency(const graph::Graph &graph, DiagnosticSink &sink)
{
    for (const graph::Layer &layer : graph.layers()) {
        if (layer.kind == graph::LayerKind::Input)
            continue;
        std::vector<graph::TensorShape> operands;
        operands.reserve(layer.inputs.size());
        for (graph::LayerId input : layer.inputs)
            operands.push_back(graph.layer(input).outputShape);
        try {
            const graph::TensorShape inferred =
                graph::inferShape(layer.kind, layer.attrs, operands);
            if (!(inferred == layer.outputShape)) {
                sink.error("AG006", layerLocation(layer),
                           "recorded output shape " +
                               layer.outputShape.toString() +
                               " disagrees with re-inferred shape " +
                               inferred.toString(),
                           "the graph was mutated after construction; "
                           "rebuild it through the Graph builder API");
            }
        } catch (const util::Error &e) {
            sink.error("AG006", layerLocation(layer),
                       std::string("shape inference failed: ") +
                           e.what());
        }
    }
}

void
lintPartitionStructure(const graph::Graph &graph, DiagnosticSink &sink)
{
    // A model without CONV/FC layers has nothing to partition — and no
    // condensed view to decompose, so this must precede AG007/AG009.
    if (graph.weightedLayers().empty()) {
        sink.warning("AG008", "model '" + graph.name() + "'",
                     "model has no weighted (CONV/FC) layers; "
                     "there is nothing to partition",
                     "add at least one conv or fc layer");
        return;
    }
    // The condensed view's construction assumes the structural
    // invariants checked above, so only attempt it once those hold.
    try {
        const core::CondensedGraph condensed(graph);
        const core::DpStructure structure(condensed);
        if (!structure.hasChain()) {
            sink.warning(
                "AG007", "model '" + graph.name() + "'",
                "fork/join structure has residual regions or branches "
                "that share their parent's join; plan certificates are "
                "unavailable for this model",
                "planning stays exact (paper §5.2 applied "
                "recursively); certificates need fork/join regions "
                "that nest with distinct joins");
        }
        // AG009: residual (non-series-parallel) regions are exact only
        // while they stay enumerable.
        if (structure.maxResidualSize() > core::kResidualExactLimit) {
            sink.error(
                "AG009", "model '" + graph.name() + "'",
                "a non-series-parallel region has " +
                    std::to_string(structure.maxResidualSize()) +
                    " internal nodes; the exact fallback enumerates "
                    "at most " +
                    std::to_string(core::kResidualExactLimit),
                "restructure the region into nested fork/join shapes "
                "or split it with explicit cut layers");
        }
    } catch (const util::Error &e) {
        sink.error("AG009", "model '" + graph.name() + "'",
                   std::string("partition planning is unavailable: ") +
                       e.what());
    }
}

} // namespace

bool
lintGraph(const graph::Graph &graph, DiagnosticSink &sink)
{
    const std::size_t errors_before = sink.errorCount();

    if (graph.empty()) {
        sink.error("AG004", "model '" + graph.name() + "'",
                   "model has no layers at all",
                   "a model needs an input and at least one layer");
        return false;
    }

    lintDuplicateNames(graph, sink);
    lintDegenerateDims(graph, sink);
    lintInputAndSinks(graph, sink);
    lintShapeConsistency(graph, sink);
    if (sink.errorCount() == errors_before)
        lintPartitionStructure(graph, sink);

    return sink.errorCount() == errors_before;
}

} // namespace accpar::analysis

/**
 * @file
 * Shared randomized-input generators for solver tests: series-parallel
 * model graphs (residual and inception-style blocks), arbitrary DAGs,
 * random pair cost models, and random type restrictions. Extracted
 * from core_dp_kernel_test so the certificate tests exercise the same
 * input distribution the kernel byte-identity tests pin down.
 */

#ifndef ACCPAR_TESTS_SUPPORT_GRAPH_GEN_H
#define ACCPAR_TESTS_SUPPORT_GRAPH_GEN_H

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/chain_dp.h"
#include "core/cost_model.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace accpar::testsupport {

/**
 * A random series-parallel network: a conv stem, then a mix of plain
 * conv blocks, residual blocks (with identity or 1x1-conv shortcuts —
 * the identity case produces an empty parallel path) and inception-
 * style concat blocks, then a GAP/FC/softmax tail.
 */
inline graph::Graph
randomSeriesParallel(util::Rng &rng, int trial)
{
    graph::Graph g("random-sp-" + std::to_string(trial));
    const std::int64_t batch = rng.uniformInt(2, 16);
    std::int64_t channels = rng.uniformInt(3, 16);
    graph::LayerId cur = g.addInput(
        "in", graph::TensorShape(batch, channels, 16, 16));
    cur = g.addConv("stem", cur,
                    graph::ConvAttrs{channels, 3, 3, 1, 1, 1, 1});

    const int blocks = static_cast<int>(rng.uniformInt(2, 5));
    for (int b = 0; b < blocks; ++b) {
        const std::string base = "b" + std::to_string(b);
        switch (rng.uniformInt(0, 2)) {
          case 0: { // plain conv
            channels = rng.uniformInt(3, 24);
            cur = g.addConv(
                base + "_conv", cur,
                graph::ConvAttrs{channels, 3, 3, 1, 1, 1, 1});
            break;
          }
          case 1: { // residual block
            graph::LayerId main = cur;
            const int depth = static_cast<int>(rng.uniformInt(1, 3));
            for (int d = 0; d < depth; ++d)
                main = g.addConv(
                    base + "_m" + std::to_string(d), main,
                    graph::ConvAttrs{channels, 3, 3, 1, 1, 1, 1});
            graph::LayerId shortcut = cur;
            if (rng.chance(0.5))
                shortcut = g.addConv(base + "_sc", cur,
                                     graph::ConvAttrs{channels, 1, 1});
            cur = g.addAdd(base + "_add", main, shortcut);
            break;
          }
          default: { // concat block
            std::vector<graph::LayerId> branches;
            const int fanout = static_cast<int>(rng.uniformInt(2, 4));
            std::int64_t out_channels = 0;
            for (int p = 0; p < fanout; ++p) {
                graph::LayerId x = cur;
                const std::int64_t ch = rng.uniformInt(2, 12);
                const int depth =
                    static_cast<int>(rng.uniformInt(1, 2));
                for (int d = 0; d < depth; ++d)
                    x = g.addConv(
                        base + "_p" + std::to_string(p) + "_" +
                            std::to_string(d),
                        x, graph::ConvAttrs{ch, 3, 3, 1, 1, 1, 1});
                out_channels += ch;
                branches.push_back(x);
            }
            cur = g.addConcat(base + "_cat", branches);
            channels = out_channels;
            break;
          }
        }
    }

    cur = g.addGlobalAvgPool("gap", cur);
    cur = g.addFullyConnected("fc", cur, rng.uniformInt(8, 64));
    g.addSoftmax("softmax", cur);
    return g;
}

/**
 * A random single-source single-sink DAG rendered as layers: one fc
 * per vertex, multi-predecessor vertices joined through Add layers.
 * Any shape arises — chains, nested and shared-join fork/joins, and
 * non-series-parallel regions.
 */
inline graph::Graph
randomDag(util::Rng &rng, int vertices)
{
    std::vector<std::vector<int>> preds(
        static_cast<std::size_t>(vertices));
    for (int v = 1; v < vertices; ++v) {
        preds[static_cast<std::size_t>(v)].push_back(
            static_cast<int>(rng.uniformInt(0, v - 1)));
        if (v > 1 && rng.chance(0.5)) {
            const int second =
                static_cast<int>(rng.uniformInt(0, v - 1));
            auto &p = preds[static_cast<std::size_t>(v)];
            if (second != p.front())
                p.push_back(second);
        }
    }
    // Route every dangling vertex into the sink so it stays single.
    std::vector<bool> consumed(static_cast<std::size_t>(vertices));
    for (int v = 1; v < vertices; ++v)
        for (int p : preds[static_cast<std::size_t>(v)])
            consumed[static_cast<std::size_t>(p)] = true;
    for (int v = 0; v + 1 < vertices; ++v) {
        auto &sink_preds = preds[static_cast<std::size_t>(vertices - 1)];
        if (!consumed[static_cast<std::size_t>(v)] &&
            std::find(sink_preds.begin(), sink_preds.end(), v) ==
                sink_preds.end())
            sink_preds.push_back(v);
    }

    graph::Graph g("random-dag");
    const auto in = g.addInput("data", graph::TensorShape(8, 4, 1, 1));
    std::vector<graph::LayerId> layer_of(
        static_cast<std::size_t>(vertices));
    layer_of[0] = g.addFullyConnected("v0", in, 4);
    for (int v = 1; v < vertices; ++v) {
        const auto &p = preds[static_cast<std::size_t>(v)];
        graph::LayerId operand = layer_of[static_cast<std::size_t>(
            p.front())];
        for (std::size_t j = 1; j < p.size(); ++j)
            operand = g.addAdd(
                "j" + std::to_string(v) + "_" + std::to_string(j),
                operand, layer_of[static_cast<std::size_t>(p[j])]);
        layer_of[static_cast<std::size_t>(v)] = g.addFullyConnected(
            "v" + std::to_string(v), operand, 4);
    }
    return g;
}

/** A random pair cost model with a random alpha already set. */
inline core::PairCostModel
randomModel(util::Rng &rng)
{
    core::CostModelConfig config;
    if (rng.chance(0.25)) {
        config.objective = core::ObjectiveKind::CommAmount;
        config.reduce = core::PairReduce::Sum;
    }
    config.includeCompute = rng.chance(0.8);
    config.bytesPerElement = rng.chance(0.5) ? 2.0 : 4.0;
    core::PairCostModel model(
        {rng.uniformDouble(1e12, 1e15), rng.uniformDouble(1e8, 1e11)},
        {rng.uniformDouble(1e12, 1e15), rng.uniformDouble(1e8, 1e11)},
        config);
    model.setAlpha(rng.uniformDouble(0.05, 0.95));
    return model;
}

/** Random non-empty allowed-type sets for @p n condensed nodes. */
inline core::TypeRestrictions
randomRestrictions(util::Rng &rng, std::size_t n)
{
    core::TypeRestrictions out(n);
    for (std::size_t v = 0; v < n; ++v) {
        for (core::PartitionType t : core::kAllPartitionTypes)
            if (rng.chance(0.7))
                out[v].push_back(t);
        if (out[v].empty())
            out[v].push_back(core::PartitionType::TypeI);
    }
    return out;
}

} // namespace accpar::testsupport

#endif // ACCPAR_TESTS_SUPPORT_GRAPH_GEN_H

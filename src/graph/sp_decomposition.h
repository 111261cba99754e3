/**
 * @file
 * Structural series-parallel decomposition of a two-terminal DAG.
 *
 * The partition search of paper §5.2 composes path minima over
 * series-parallel regions. This pass *detects* that structure: it
 * produces a binary decomposition tree whose internal nodes are series
 * or parallel compositions of two-terminal regions, and whose leaves
 * are single edges. Regions that are not series-parallel are not an
 * error — they become explicit Residual nodes carrying their internal
 * vertex set, which the DP kernel (core/dp_kernel.h) flattens and
 * enumerates exactly under a size bound, and the linter reports
 * otherwise.
 *
 * The input is an adjacency view of any single-source single-sink DAG
 * whose vertices are numbered in topological order (the invariant
 * core::CondensedGraph already provides). Parallel edges are allowed
 * and yield one Leaf branch per occurrence.
 */

#ifndef ACCPAR_GRAPH_SP_DECOMPOSITION_H
#define ACCPAR_GRAPH_SP_DECOMPOSITION_H

#include <cstddef>
#include <vector>

namespace accpar::graph {

/** Index of a node inside an SpTree. */
using SpNodeId = int;

/** Sentinel for "no tree node" (empty trees, leaf children). */
inline constexpr SpNodeId kNoSpNode = -1;

/** What one decomposition-tree node represents. */
enum class SpKind
{
    /** A single DAG edge source -> sink. */
    Leaf,
    /** Sequential composition: left spans (source, m), right (m, t). */
    Series,
    /** Parallel composition of two regions sharing both terminals. */
    Parallel,
    /** A two-terminal region that is not series-parallel. */
    Residual,
};

/** Printable kind tag ("leaf", "series", "parallel", "residual"). */
const char *spKindName(SpKind kind);

/**
 * One node of the decomposition tree. Every node describes a
 * two-terminal region of the DAG: the terminals plus the internal
 * vertices strictly between them. The region's edge set is the
 * disjoint union of its children's (a Leaf owns exactly one edge;
 * a Residual owns every edge incident to its internal vertices).
 */
struct SpNode
{
    SpKind kind = SpKind::Leaf;
    /** Entry terminal (DAG vertex id). */
    int source = -1;
    /** Exit terminal (DAG vertex id). */
    int sink = -1;
    /** Children for Series/Parallel; kNoSpNode for Leaf/Residual.
     *  For Series, node(left).sink == node(right).source is the
     *  region's cut vertex. */
    SpNodeId left = kNoSpNode;
    SpNodeId right = kNoSpNode;
    /** Residual only: internal vertices in topological order. */
    std::vector<int> internal;
};

/** The binary decomposition tree of one DAG. */
class SpTree
{
  public:
    /** Number of tree nodes (0 for a single-vertex DAG). */
    std::size_t size() const { return _nodes.size(); }

    const SpNode &node(SpNodeId id) const { return _nodes.at(id); }
    const std::vector<SpNode> &nodes() const { return _nodes; }

    /** Root node spanning (DAG source, DAG sink); kNoSpNode when the
     *  DAG has a single vertex and therefore no edges. */
    SpNodeId root() const { return _root; }

    /** True when no Residual node exists: the DAG is series-parallel. */
    bool seriesParallel() const { return _residuals == 0; }

    /** Number of Residual nodes. */
    std::size_t residualCount() const { return _residuals; }

    /** Internal-vertex count of the largest Residual region (0 when
     *  series-parallel). Drives the exact-fallback bound. */
    std::size_t maxResidualSize() const { return _maxResidual; }

    /** Appends a node (builder use only — decomposeSpTree); children
     *  must already exist, which is what makes an id-ordered walk
     *  bottom-up. */
    SpNodeId add(SpNode node);

  private:
    friend SpTree decomposeSpTree(
        const std::vector<std::vector<int>> &succs);

    std::vector<SpNode> _nodes;
    SpNodeId _root = kNoSpNode;
    std::size_t _residuals = 0;
    std::size_t _maxResidual = 0;
};

/**
 * Decomposes the DAG given by successor lists @p succs.
 *
 * Requirements (ConfigError otherwise): at least one vertex, every
 * edge increases the vertex index (topological numbering), exactly
 * one source (vertex 0) and one sink (vertex n-1). These are the
 * invariants core::CondensedGraph guarantees for condensed models.
 *
 * The result is total: every DAG edge is owned by exactly one Leaf or
 * Residual node, and every internal vertex by exactly one Series cut
 * or Residual internal set, so a bottom-up walk visits every cost
 * term of the region exactly once.
 */
SpTree decomposeSpTree(const std::vector<std::vector<int>> &succs);

} // namespace accpar::graph

#endif // ACCPAR_GRAPH_SP_DECOMPOSITION_H

/**
 * @file
 * Frozen post-dominator chain decomposition: the structural oracle for
 * the DP kernel's flattening of the SP tree.
 *
 * This is a verbatim copy of the chain pass src/core/segment.cpp ran
 * before the SP tree became the only decomposition: immediate
 * post-dominators, and fork/join regions grown from each fork to its
 * immediate post-dominator. Tests assert that PartitionProblem::chain()
 * equals its result element by element, and that hasChain() holds
 * exactly when it succeeds. It is compiled into the test-only
 * accpar_legacy_dp library and must never be edited to track src/core.
 */

#ifndef ACCPAR_TESTS_SUPPORT_LEGACY_SEGMENT_H
#define ACCPAR_TESTS_SUPPORT_LEGACY_SEGMENT_H

#include <vector>

#include "core/condensed_graph.h"
#include "core/segment.h"

namespace accpar::core::legacy {

/**
 * Decomposes @p graph into its series-parallel chain.
 *
 * Supports arbitrary nesting with distinct join nodes; throws ConfigError
 * for graphs where a nested region's join coincides with its parent's
 * (not series-parallel in the two-terminal sense, and not produced by any
 * model in the zoo).
 */
Chain decomposeSeriesParallel(const CondensedGraph &graph);

/** Immediate post-dominator of every node (sink maps to itself). */
std::vector<CNodeId> immediatePostDominators(const CondensedGraph &graph);

} // namespace accpar::core::legacy

#endif // ACCPAR_TESTS_SUPPORT_LEGACY_SEGMENT_H

/**
 * @file
 * The chain view of a series-parallel condensed graph.
 *
 * The multi-path partitioning of paper §5.2 enumerates the states of the
 * layer before a fork and the layer after the join, and solves each path
 * independently between the two states. A Chain records that structure
 * for graphs whose fork/join regions nest with distinct joins: a sequence
 * of Elements, where an Element is either a single node or a parallel
 * region (the paths between a fork and its join, with the join as the
 * element's state-carrying node). Identity shortcuts appear as empty
 * paths. PartitionProblem::chain() derives it from the DP kernel's
 * compiled structure (core/dp_kernel.h); plan certificates replay it.
 */

#ifndef ACCPAR_CORE_SEGMENT_H
#define ACCPAR_CORE_SEGMENT_H

#include <vector>

#include "core/condensed_graph.h"

namespace accpar::core {

struct Element;

/** A sequence of elements; inside a parallel region, possibly empty. */
struct Chain
{
    std::vector<Element> elements;
};

/**
 * One step of a chain. The element's partition state is the state of
 * @c node. For a parallel element, @c node is the join and @c paths hold
 * the (possibly empty) branches between the fork (the previous element's
 * node) and the join.
 */
struct Element
{
    CNodeId node = -1;
    std::vector<Chain> paths;

    bool isParallel() const { return !paths.empty(); }
};

/** All node ids covered by @p chain, recursively, in visit order. */
std::vector<CNodeId> collectChainNodes(const Chain &chain);

} // namespace accpar::core

#endif // ACCPAR_CORE_SEGMENT_H

/**
 * @file
 * Static lint rules over DNN graphs — run before any solving.
 *
 * The Graph builder API makes many violations impossible by
 * construction, but graphs also arrive from JSON model files and from
 * future programmatic producers; the linter re-checks every structural
 * invariant the solver assumes and reports violations as diagnostics
 * instead of failing deep inside the search. Rule catalog (see
 * DESIGN.md):
 *
 *   AG001 error   duplicate layer names
 *   AG002 error   degenerate dimension (B == 0, D_o == 0, ...)
 *   AG003 error   layer unreachable from the input
 *   AG004 error   not exactly one Input layer
 *   AG005 error   not exactly one sink layer
 *   AG006 error   recorded output shape disagrees with re-inference
 *   AG007 warning certificates unavailable: residual regions or
 *                 branches sharing their parent's join (§5.2)
 *   AG008 warning no weighted (CONV/FC) layers — nothing to partition
 */

#ifndef ACCPAR_ANALYSIS_GRAPH_LINTER_H
#define ACCPAR_ANALYSIS_GRAPH_LINTER_H

#include "analysis/diagnostic.h"
#include "graph/graph.h"

namespace accpar::analysis {

/**
 * Runs every graph lint rule over @p graph, reporting into @p sink.
 * Never throws on malformed graphs; returns true when no errors were
 * added (warnings do not fail the lint).
 */
bool lintGraph(const graph::Graph &graph, DiagnosticSink &sink);

} // namespace accpar::analysis

#endif // ACCPAR_ANALYSIS_GRAPH_LINTER_H

#include "support/legacy_segment.h"

#include "util/error.h"

namespace accpar::core::legacy {

std::vector<CNodeId>
immediatePostDominators(const CondensedGraph &graph)
{
    // Node indices are a topological order by construction, so the
    // Cooper-Harvey-Kennedy intersection runs directly on indices, with
    // post-dominators processed from the sink backwards.
    const int n = static_cast<int>(graph.size());
    std::vector<CNodeId> ipdom(n, -1);
    const CNodeId sink = graph.sink();
    ipdom[sink] = sink;

    auto intersect = [&](CNodeId a, CNodeId b) {
        while (a != b) {
            while (a < b)
                a = ipdom[a];
            while (b < a)
                b = ipdom[b];
        }
        return a;
    };

    for (int u = n - 1; u >= 0; --u) {
        if (u == sink)
            continue;
        const CondensedNode &node = graph.node(u);
        ACCPAR_ASSERT(!node.succs.empty(),
                      "non-sink node " << node.name << " has no succs");
        CNodeId dom = node.succs.front();
        for (std::size_t i = 1; i < node.succs.size(); ++i)
            dom = intersect(dom, node.succs[i]);
        ipdom[u] = dom;
    }
    return ipdom;
}

namespace {

Element
singleElement(CNodeId node)
{
    Element e;
    e.node = node;
    return e;
}

/**
 * Appends elements covering the open-closed region (cur, stop] of the
 * condensed graph to @p out. Nested forks recurse.
 */
void
buildRegion(const CondensedGraph &graph, const std::vector<CNodeId> &ipdom,
            CNodeId cur, CNodeId stop, std::vector<Element> &out)
{
    while (cur != stop) {
        const CondensedNode &node = graph.node(cur);
        if (node.succs.size() == 1) {
            cur = node.succs.front();
            out.push_back(singleElement(cur));
            continue;
        }

        // Fork: all paths reconverge at cur's immediate post-dominator.
        const CNodeId join = ipdom[cur];
        Element par;
        par.node = join;
        for (CNodeId s : node.succs) {
            Chain path;
            if (s != join) {
                path.elements.push_back(singleElement(s));
                buildRegion(graph, ipdom, s, join, path.elements);
                // The region includes the join; the join's state belongs
                // to the parallel element, so strip it from the path.
                ACCPAR_REQUIRE(!path.elements.back().isParallel(),
                               "nested parallel region joining at its "
                               "parent's join is not supported (node "
                                   << graph.node(join).name << ")");
                ACCPAR_ASSERT(path.elements.back().node == join,
                              "path does not end at the join");
                path.elements.pop_back();
            }
            par.paths.push_back(std::move(path));
        }
        out.push_back(std::move(par));
        cur = join;
    }
}

} // namespace

Chain
decomposeSeriesParallel(const CondensedGraph &graph)
{
    const std::vector<CNodeId> ipdom = immediatePostDominators(graph);
    Chain chain;
    const CNodeId source = graph.source();
    chain.elements.push_back(singleElement(source));
    buildRegion(graph, ipdom, source, graph.sink(), chain.elements);

    // Every condensed node must be represented exactly once.
    std::vector<CNodeId> covered = collectChainNodes(chain);
    ACCPAR_ASSERT(covered.size() == graph.size(),
                  "series-parallel decomposition covered "
                      << covered.size() << " of " << graph.size()
                      << " nodes");
    std::vector<bool> seen(graph.size(), false);
    for (CNodeId id : covered) {
        ACCPAR_ASSERT(!seen[id], "node " << graph.node(id).name
                                         << " covered twice");
        seen[id] = true;
    }
    return chain;
}

} // namespace accpar::core::legacy

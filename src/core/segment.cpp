#include "core/segment.h"

namespace accpar::core {

namespace {

void
collect(const Chain &chain, std::vector<CNodeId> &out)
{
    for (const Element &e : chain.elements) {
        for (const Chain &path : e.paths)
            collect(path, out);
        out.push_back(e.node);
    }
}

} // namespace

std::vector<CNodeId>
collectChainNodes(const Chain &chain)
{
    std::vector<CNodeId> out;
    collect(chain, out);
    return out;
}

} // namespace accpar::core

#include "core/dp_kernel.h"

#include <algorithm>
#include <limits>

#include "core/certificate.h"
#include "util/error.h"

namespace accpar::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Appends the operands of the binary left-fold of @p kind rooted at
 *  @p id, left to right; a node of another kind is one operand. */
void
unfold(const graph::SpTree &tree, graph::SpNodeId id, graph::SpKind kind,
       std::vector<graph::SpNodeId> &out)
{
    const graph::SpNode &node = tree.node(id);
    if (node.kind != kind) {
        out.push_back(id);
        return;
    }
    unfold(tree, node.left, kind, out);
    unfold(tree, node.right, kind, out);
}

} // namespace

DpStructure::DpStructure(const CondensedGraph &graph) : _graph(graph)
{
    const std::size_t n = graph.size();
    _edgeStart.assign(n + 1, 0);
    std::vector<std::vector<int>> succs(n);
    for (std::size_t v = 0; v < n; ++v) {
        _edgeStart[v] = static_cast<std::int32_t>(_edges.size());
        const CondensedNode &node = graph.node(static_cast<CNodeId>(v));
        for (CNodeId u : node.preds) {
            Edge edge;
            edge.from = u;
            edge.to = static_cast<CNodeId>(v);
            _edges.push_back(edge);
            succs[u].push_back(static_cast<int>(v));
        }
    }
    _edgeStart[n] = static_cast<std::int32_t>(_edges.size());

    const graph::SpTree tree = graph::decomposeSpTree(succs);
    _root = std::make_unique<CompiledChain>();
    CompiledElem source;
    source.node = graph.source();
    _root->elems.push_back(std::move(source));
    if (tree.root() != graph::kNoSpNode) {
        std::vector<graph::SpNodeId> parts;
        unfold(tree, tree.root(), graph::SpKind::Series, parts);
        appendElems(tree, parts, parts.size(), *_root);
    }
    _hasChain = chainShaped(*_root);

    // The structure must cover every condensed node exactly once, or
    // backtracking would leave nodes unassigned.
    std::vector<CNodeId> nodes;
    collectNodes(*_root, nodes);
    std::vector<bool> covered(n, false);
    for (CNodeId v : nodes) {
        ACCPAR_ASSERT(!covered[v], "DP covers node "
                                       << graph.node(v).name << " twice");
        covered[v] = true;
    }
    for (std::size_t v = 0; v < n; ++v)
        ACCPAR_ASSERT(covered[v],
                      "DP left node "
                          << graph.node(static_cast<CNodeId>(v)).name
                          << " unassigned");
}

DpStructure::~DpStructure() = default;

std::int32_t
DpStructure::edgeIndex(CNodeId from, CNodeId to) const
{
    for (std::int32_t e = _edgeStart[to]; e < _edgeStart[to + 1]; ++e) {
        if (_edges[e].from == from)
            return e;
    }
    throw util::InternalError("no condensed edge " +
                              std::to_string(from) + " -> " +
                              std::to_string(to));
}

/** Appends one element per series part among the first @p count of
 *  @p parts: the part's sink, reached through the part's region. */
void
DpStructure::appendElems(const graph::SpTree &tree,
                         const std::vector<graph::SpNodeId> &parts,
                         std::size_t count, CompiledChain &chain)
{
    for (std::size_t i = 0; i < count; ++i) {
        CompiledElem elem;
        elem.node = tree.node(parts[i]).sink;
        elem.in = compileTransition(tree, parts[i]);
        chain.elems.push_back(std::move(elem));
    }
}

DpStructure::Transition
DpStructure::compileTransition(const graph::SpTree &tree,
                               graph::SpNodeId id)
{
    const graph::SpNode &node = tree.node(id);
    Transition tr;
    switch (node.kind) {
      case graph::SpKind::Leaf:
        tr.block = edgeIndex(node.source, node.sink);
        break;
      case graph::SpKind::Residual:
        tr.block = compileResidual(node);
        break;
      case graph::SpKind::Parallel: {
        std::vector<graph::SpNodeId> branches;
        unfold(tree, id, graph::SpKind::Parallel, branches);
        // The tree lists direct fork -> join edges before the
        // branches through internal nodes (ordered by their first
        // node); the fork's ascending successor list reaches the join
        // last. Branch sums follow the successor order.
        std::stable_partition(branches.begin(), branches.end(),
                              [&](graph::SpNodeId b) {
                                  return tree.node(b).kind !=
                                         graph::SpKind::Leaf;
                              });
        for (graph::SpNodeId b : branches)
            tr.paths.push_back(compilePath(tree, b));
        break;
      }
      case graph::SpKind::Series:
        throw util::InternalError(
            "series region compiled as a single transition");
    }
    return tr;
}

DpStructure::CompiledPath
DpStructure::compilePath(const graph::SpTree &tree, graph::SpNodeId id)
{
    std::vector<graph::SpNodeId> parts;
    unfold(tree, id, graph::SpKind::Series, parts);
    CompiledPath path;
    if (parts.size() > 1) {
        path.chain = std::make_unique<CompiledChain>();
        appendElems(tree, parts, parts.size() - 1, *path.chain);
        path.lastNode = path.chain->elems.back().node;
    }
    path.exit = compileTransition(tree, parts.back());
    return path;
}

std::int32_t
DpStructure::compileResidual(const graph::SpNode &node)
{
    Residual res;
    res.source = node.source;
    res.sink = node.sink;
    res.internal.assign(node.internal.begin(), node.internal.end());
    std::vector<std::int32_t> slot(_graph.size(), -1);
    for (std::size_t i = 0; i < res.internal.size(); ++i)
        slot[res.internal[i]] = static_cast<std::int32_t>(i);
    for (CNodeId v : res.internal) {
        for (CNodeId p : _graph.node(v).preds) {
            ACCPAR_ASSERT(p == res.source || slot[p] >= 0,
                          "residual region edge " << p << " -> " << v
                                                  << " escapes the "
                                                     "region");
            const Residual::Term term{edgeIndex(p, v), slot[p], slot[v]};
            (p == res.source ? res.cross : res.inner).push_back(term);
        }
    }
    for (CNodeId p : _graph.node(res.sink).preds) {
        if (slot[p] >= 0)
            res.cross.push_back({edgeIndex(p, res.sink), slot[p], -1});
    }
    _residuals.push_back(std::move(res));
    return static_cast<std::int32_t>(_edges.size() + _residuals.size() -
                                     1);
}

bool
DpStructure::chainShaped(const CompiledChain &chain) const
{
    const auto isEdge = [&](const Transition &tr) {
        return !tr.isParallel() &&
               tr.block < static_cast<std::int32_t>(_edges.size());
    };
    for (std::size_t i = 0; i < chain.elems.size(); ++i) {
        const Transition &in = chain.elems[i].in;
        if (isEdge(in))
            continue;
        if (!in.isParallel() || i == 0)
            return false;
        for (const CompiledPath &path : in.paths) {
            if (!isEdge(path.exit) ||
                (path.chain && !chainShaped(*path.chain)))
                return false;
        }
    }
    return true;
}

void
DpStructure::collectNodes(const Transition &tr,
                          std::vector<CNodeId> &out) const
{
    for (const CompiledPath &path : tr.paths) {
        if (path.chain)
            collectNodes(*path.chain, out);
        collectNodes(path.exit, out);
    }
    if (tr.block >= static_cast<std::int32_t>(_edges.size())) {
        const Residual &res = _residuals[tr.block - _edges.size()];
        out.insert(out.end(), res.internal.begin(), res.internal.end());
    }
}

void
DpStructure::collectNodes(const CompiledChain &chain,
                          std::vector<CNodeId> &out) const
{
    for (const CompiledElem &elem : chain.elems) {
        collectNodes(elem.in, out);
        out.push_back(elem.node);
    }
}

std::size_t
DpStructure::maxResidualSize() const
{
    std::size_t largest = 0;
    for (const Residual &res : _residuals)
        largest = std::max(largest, res.internal.size());
    return largest;
}

namespace {

/** Mirrors a compiled chain as a legacy Chain (identity shortcuts
 *  become empty paths). */
template <typename Compiled>
Chain
toChain(const Compiled &compiled)
{
    Chain chain;
    for (const auto &elem : compiled.elems) {
        Element element;
        element.node = elem.node;
        for (const auto &path : elem.in.paths)
            element.paths.push_back(path.chain ? toChain(*path.chain)
                                               : Chain{});
        chain.elements.push_back(std::move(element));
    }
    return chain;
}

} // namespace

Chain
DpStructure::chainView() const
{
    ACCPAR_REQUIRE(_hasChain,
                   "model " << _graph.modelName()
                            << " is not chain-decomposable; it has no "
                               "legacy chain view");
    return toChain(*_root);
}

std::vector<BackboneStep>
DpStructure::backbone() const
{
    std::vector<BackboneStep> steps;
    for (const CompiledElem &elem : _root->elems) {
        BackboneStep step;
        step.node = elem.node;
        collectNodes(elem.in, step.region);
        steps.push_back(std::move(step));
    }
    return steps;
}

DpKernel::DpKernel(const DpStructure &structure,
                   const std::vector<LayerDims> &dims)
    : _structure(structure), _dims(dims)
{
    init();
}

void
DpKernel::init()
{
    const CondensedGraph &graph = _structure._graph;
    ACCPAR_REQUIRE(_dims.size() == graph.size(),
                   "dims size mismatch: " << _dims.size() << " vs "
                                          << graph.size());
    ACCPAR_ASSERT(_structure.maxResidualSize() <= kResidualExactLimit,
                  "residual region beyond the exact-enumeration bound");

    const std::vector<Edge> &edges = _structure._edges;
    _boundary.resize(edges.size());
    for (std::size_t e = 0; e < edges.size(); ++e)
        _boundary[e] = std::min(_dims[edges[e].from].sizeOutput(),
                                _dims[edges[e].to].sizeInput());

    _rootState = makeState(*_structure._root);
    _nodeTable.assign(graph.size() * 3, 0.0);
    const std::size_t residuals = _structure._residuals.size();
    _edgeTableT.assign((edges.size() + residuals) * 9, 0.0);
    _residualPick.assign(residuals * 9 * kResidualExactLimit, -1);
}

DpKernel::~DpKernel() = default;

DpKernel::ChainState
DpKernel::makeState(const CompiledChain &chain) const
{
    ChainState state;
    const std::size_t m = chain.elems.size();
    state.cost.assign(m * 3, kInf);
    state.parent.assign(m * 3, -1);
    state.pars.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
        if (chain.elems[i].in.isParallel())
            state.pars[i] = makeParState(chain.elems[i].in);
    }
    return state;
}

std::unique_ptr<DpKernel::ParState>
DpKernel::makeParState(const Transition &tr) const
{
    auto par = std::make_unique<ParState>();
    par->paths.resize(tr.paths.size());
    for (std::size_t p = 0; p < tr.paths.size(); ++p) {
        const CompiledPath &path = tr.paths[p];
        for (PathState &sub : par->paths[p]) {
            if (path.chain)
                sub.chain = makeState(*path.chain);
            if (path.exit.isParallel())
                sub.exit = makeParState(path.exit);
        }
    }
    return par;
}

void
DpKernel::resetState(const CompiledChain &chain, ChainState &state) const
{
    std::fill(state.cost.begin(), state.cost.end(), kInf);
    std::fill(state.parent.begin(), state.parent.end(),
              static_cast<std::int8_t>(-1));
    for (std::size_t i = 0; i < chain.elems.size(); ++i) {
        if (state.pars[i])
            state.pars[i]->solved = {false, false, false};
    }
    // Path sub-states are reset lazily, right before their sub-solve.
}

/**
 * Minimizes every residual region over its internal assignments, for
 * each allowed (source, sink) type pair, into the region's block of
 * the to-major table. The odometer visits assignments in lexicographic
 * order (first internal node fastest) and a cell keeps the first
 * strict improvement, so the winner is deterministic.
 */
void
DpKernel::solveResiduals()
{
    const TypeRestrictions &allowed = *_allowed;
    const std::size_t edges = _structure._edges.size();
    int ti[kResidualExactLimit] = {};
    std::size_t digit[kResidualExactLimit] = {};
    for (std::size_t r = 0; r < _structure._residuals.size(); ++r) {
        const Residual &res = _structure._residuals[r];
        double *block = _edgeTableT.data() + (edges + r) * 9;
        std::fill(block, block + 9, kInf);
        std::int8_t *pick =
            _residualPick.data() + r * 9 * kResidualExactLimit;
        const std::size_t k = res.internal.size();
        for (std::size_t i = 0; i < k; ++i) {
            digit[i] = 0;
            ti[i] = partitionTypeIndex(allowed[res.internal[i]].front());
        }
        while (true) {
            double base = 0.0;
            for (std::size_t i = 0; i < k; ++i)
                base += _nodeTable[res.internal[i] * 3 + ti[i]];
            for (const Residual::Term &term : res.inner)
                base += _edgeTableT[term.edge * 9 + ti[term.to] * 3 +
                                    ti[term.from]];
            for (PartitionType ta : allowed[res.source]) {
                const int a = partitionTypeIndex(ta);
                for (PartitionType tb : allowed[res.sink]) {
                    const int b = partitionTypeIndex(tb);
                    double total = base;
                    for (const Residual::Term &term : res.cross) {
                        const int from = term.from < 0 ? a : ti[term.from];
                        const int to = term.to < 0 ? b : ti[term.to];
                        total += _edgeTableT[term.edge * 9 + to * 3 + from];
                    }
                    if (total < block[b * 3 + a]) {
                        block[b * 3 + a] = total;
                        std::int8_t *slot =
                            pick + (b * 3 + a) * kResidualExactLimit;
                        for (std::size_t i = 0; i < k; ++i)
                            slot[i] = static_cast<std::int8_t>(ti[i]);
                    }
                }
            }
            // Advance the odometer.
            std::size_t pos = 0;
            while (pos < k) {
                const std::vector<PartitionType> &types =
                    allowed[res.internal[pos]];
                if (++digit[pos] < types.size()) {
                    ti[pos] = partitionTypeIndex(types[digit[pos]]);
                    break;
                }
                digit[pos] = 0;
                ti[pos] = partitionTypeIndex(types.front());
                ++pos;
            }
            if (pos == k)
                break;
        }
    }
}

/** Cost of reaching state @p to from state @p from through @p tr. */
inline double
DpKernel::transition(const Transition &tr, ParState *par, int from,
                     int to)
{
    if (tr.block >= 0)
        return _edgeTableT[tr.block * 9 + to * 3 + from];
    return parallelTransition(tr, *par, from, to);
}

/**
 * Transition cost of a parallel region when the fork (state index
 * @p tti) feeds the join (state index @p t): the per-path minima of
 * Figure 4, summed over paths. Each branch chain is solved once per
 * entry state and reused for all three join states.
 */
double
DpKernel::parallelTransition(const Transition &tr, ParState &par, int tti,
                             int t)
{
    if (!par.solved[tti]) {
        for (std::size_t p = 0; p < tr.paths.size(); ++p) {
            const CompiledPath &path = tr.paths[p];
            PathState &sub = par.paths[p][tti];
            if (path.chain) {
                resetState(*path.chain, sub.chain);
                solveChain(*path.chain, sub.chain, tti);
            }
            if (sub.exit)
                sub.exit->solved = {false, false, false};
        }
        par.solved[tti] = true;
    }

    double total = 0.0;
    for (std::size_t p = 0; p < tr.paths.size(); ++p) {
        const CompiledPath &path = tr.paths[p];
        PathState &sub = par.paths[p][tti];
        if (!path.chain) {
            total += transition(path.exit, sub.exit.get(), tti, t);
            continue;
        }
        const int best_s = bestPathExit(path, sub, t);
        const std::size_t last = path.chain->elems.size() - 1;
        total += sub.chain.cost[last * 3 + best_s] +
                 transition(path.exit, sub.exit.get(), best_s, t);
    }
    return total;
}

/** Argmin exit state of one solved branch chain feeding join state
 *  @p t. */
int
DpKernel::bestPathExit(const CompiledPath &path, PathState &state, int t)
{
    const std::size_t last = path.chain->elems.size() - 1;
    const double *cost = state.chain.cost.data() + last * 3;
    const std::vector<PartitionType> &exits = (*_allowed)[path.lastNode];
    // Exit cost into t per exit state: a table column, or the nested
    // parallel's sums when the branch closes at its parent's join.
    double nested[3] = {kInf, kInf, kInf};
    const double *exit = nested;
    if (!path.exit.isParallel()) {
        exit = _edgeTableT.data() + path.exit.block * 9 + t * 3;
    } else {
        for (PartitionType s : exits) {
            const int si = partitionTypeIndex(s);
            if (cost[si] != kInf)
                nested[si] =
                    parallelTransition(path.exit, *state.exit, si, t);
        }
    }
    double best = kInf;
    int best_s = -1;
    for (PartitionType s : exits) {
        const int si = partitionTypeIndex(s);
        if (cost[si] == kInf)
            continue;
        const double cand = cost[si] + exit[si];
        if (cand < best) {
            best = cand;
            best_s = si;
        }
    }
    ACCPAR_ASSERT(best_s >= 0, "parallel path has no feasible state");
    return best_s;
}

/**
 * The flat DP over one compiled chain. @p entry_ti < 0 means the chain
 * starts the model (Eq. 9's c(L_0, t) = 0 initialization); otherwise
 * the first element pays the transition from the fork's entry state.
 */
void
DpKernel::solveChain(const CompiledChain &chain, ChainState &state,
                     int entry_ti)
{
    const TypeRestrictions &allowed = *_allowed;
    const std::vector<CompiledElem> &elems = chain.elems;
    {
        const CompiledElem &elem = elems[0];
        for (PartitionType t : allowed[elem.node]) {
            const int ti = partitionTypeIndex(t);
            double cost = _nodeTable[elem.node * 3 + ti];
            if (entry_ti >= 0)
                cost += transition(elem.in, state.pars[0].get(), entry_ti,
                                   ti);
            state.cost[ti] = cost;
        }
    }

    for (std::size_t i = 1; i < elems.size(); ++i) {
        const CompiledElem &elem = elems[i];
        const CompiledElem &prev = elems[i - 1];
        const double *prev_cost = state.cost.data() + (i - 1) * 3;
        double *cur_cost = state.cost.data() + i * 3;
        std::int8_t *cur_parent = state.parent.data() + i * 3;
        // One loop for edge, residual and parallel transitions alike:
        // (prev + trans) + node, reduced in the allowed-type order with
        // the strict-< first-wins tie-break.
        ParState *par = state.pars[i].get();
        for (PartitionType t : allowed[elem.node]) {
            const int ti = partitionTypeIndex(t);
            const double node_cost = _nodeTable[elem.node * 3 + ti];
            double best = kInf;
            int best_tt = -1;
            for (PartitionType tt : allowed[prev.node]) {
                const int tti = partitionTypeIndex(tt);
                if (prev_cost[tti] == kInf)
                    continue;
                const double cand =
                    (prev_cost[tti] + transition(elem.in, par, tti, ti)) +
                    node_cost;
                if (cand < best) {
                    best = cand;
                    best_tt = tti;
                }
            }
            if (best_tt < 0)
                continue;
            cur_cost[ti] = best;
            cur_parent[ti] = static_cast<std::int8_t>(best_tt);
        }
    }
}

/**
 * One reconstruction pass over the parent pointers. The exit states of
 * parallel branches are re-derived from the memoized branch states with
 * the same argmin the forward pass used, so the recovered assignment is
 * exactly the one the costs were computed from.
 */
void
DpKernel::backtrack(const CompiledChain &chain, ChainState &state,
                    int entry_ti, int exit_ti,
                    std::vector<PartitionType> &types)
{
    int ti = exit_ti;
    for (std::size_t i = chain.elems.size(); i-- > 0;) {
        const CompiledElem &elem = chain.elems[i];
        types[elem.node] = partitionTypeFromIndex(ti);
        const int from = i > 0 ? state.parent[i * 3 + ti] : entry_ti;
        if (from >= 0)
            backtrackTransition(elem.in, state.pars[i].get(), from, ti,
                                types);
        ti = from;
    }
}

/** Assigns the nodes inside @p tr for the winning (from, to) pair. */
void
DpKernel::backtrackTransition(const Transition &tr, ParState *par,
                              int from, int to,
                              std::vector<PartitionType> &types)
{
    const std::size_t edges = _structure._edges.size();
    if (!tr.isParallel()) {
        if (tr.block < static_cast<std::int32_t>(edges))
            return;
        const std::size_t r = static_cast<std::size_t>(tr.block) - edges;
        const Residual &res = _structure._residuals[r];
        const std::int8_t *slot =
            _residualPick.data() +
            (r * 9 + static_cast<std::size_t>(to * 3 + from)) *
                kResidualExactLimit;
        for (std::size_t i = 0; i < res.internal.size(); ++i)
            types[res.internal[i]] = partitionTypeFromIndex(slot[i]);
        return;
    }
    for (std::size_t p = 0; p < tr.paths.size(); ++p) {
        const CompiledPath &path = tr.paths[p];
        PathState &sub = par->paths[p][from];
        int exit_from = from;
        if (path.chain) {
            exit_from = bestPathExit(path, sub, to);
            backtrack(*path.chain, sub.chain, from, exit_from, types);
        }
        backtrackTransition(path.exit, sub.exit.get(), exit_from, to,
                            types);
    }
}

ChainDpResult
DpKernel::solve(const PairCostModel &model,
                const TypeRestrictions &allowed)
{
    const CondensedGraph &graph = _structure._graph;
    ACCPAR_REQUIRE(allowed.size() == graph.size(),
                   "type restriction size mismatch");
    _allowed = &allowed;

    // Step 1: dense cost tables, restricted to the allowed types (the
    // DP never reads a disallowed entry). Same model entry points and
    // arguments as the unflattened path, so memoized or not the values
    // are bit-identical.
    const std::size_t n = graph.size();
    for (std::size_t v = 0; v < n; ++v) {
        const CondensedNode &node = graph.node(static_cast<CNodeId>(v));
        ACCPAR_ASSERT(!allowed[v].empty(),
                      "node " << node.name << " has no allowed types");
        for (PartitionType t : allowed[v]) {
            _nodeTable[v * 3 + partitionTypeIndex(t)] = model.nodeCost(
                static_cast<int>(v), _dims[v], node.junction, t);
        }
    }
    const std::vector<Edge> &edges = _structure._edges;
    for (std::size_t e = 0; e < edges.size(); ++e) {
        const Edge &edge = edges[e];
        for (PartitionType from : allowed[edge.from]) {
            const int fi = partitionTypeIndex(from);
            for (PartitionType to : allowed[edge.to]) {
                _edgeTableT[e * 9 + partitionTypeIndex(to) * 3 + fi] =
                    model.transitionCost(edge.from, from, to,
                                         _boundary[e]);
            }
        }
    }
    solveResiduals();

    // Step 2: the flat DP.
    resetState(*_structure._root, _rootState);
    solveChain(*_structure._root, _rootState, -1);

    const std::size_t m = _structure._root->elems.size();
    const CNodeId last = _structure._root->elems.back().node;
    const double *exit_cost = _rootState.cost.data() + (m - 1) * 3;
    double best = kInf;
    int best_t = -1;
    for (PartitionType t : allowed[last]) {
        const int ti = partitionTypeIndex(t);
        if (exit_cost[ti] < best) {
            best = exit_cost[ti];
            best_t = ti;
        }
    }
    ACCPAR_ASSERT(best_t >= 0, "DP found no feasible assignment");

    // Step 3: one backtracking pass.
    ChainDpResult result;
    result.cost = best;
    result.types.assign(n, PartitionType::TypeI);
    backtrack(*_structure._root, _rootState, -1, best_t, result.types);
    return result;
}

void
DpKernel::extractCertificate(const TypeRestrictions &allowed,
                             NodeCertificate &cert) const
{
    const CondensedGraph &graph = _structure._graph;
    ACCPAR_REQUIRE(allowed.size() == graph.size(),
                   "type restriction size mismatch");
    const std::size_t n = graph.size();
    cert.allowed = allowed;

    cert.nodeTable.assign(n, {0.0, 0.0, 0.0});
    for (std::size_t v = 0; v < n; ++v) {
        for (PartitionType t : allowed[v]) {
            const auto ti =
                static_cast<std::size_t>(partitionTypeIndex(t));
            cert.nodeTable[v][ti] = _nodeTable[v * 3 + ti];
        }
    }

    const std::vector<Edge> &edges = _structure._edges;
    cert.edges.clear();
    cert.edges.reserve(edges.size());
    for (std::size_t e = 0; e < edges.size(); ++e) {
        const Edge &edge = edges[e];
        CertificateEdge ce;
        ce.from = edge.from;
        ce.to = edge.to;
        ce.boundary = _boundary[e];
        for (PartitionType from : allowed[edge.from]) {
            const int fi = partitionTypeIndex(from);
            for (PartitionType to : allowed[edge.to]) {
                const int ti = partitionTypeIndex(to);
                ce.cost[static_cast<std::size_t>(fi * 3 + ti)] =
                    _edgeTableT[e * 9 + static_cast<std::size_t>(ti) * 3 +
                                static_cast<std::size_t>(fi)];
            }
        }
        cert.edges.push_back(ce);
    }

    const std::vector<CompiledElem> &elems = _structure._root->elems;
    const std::size_t m = elems.size();
    cert.chainNodes.clear();
    cert.chainNodes.reserve(m);
    cert.dpCost.assign(m, {kInf, kInf, kInf});
    cert.dpParent.assign(m, {-1, -1, -1});
    for (std::size_t i = 0; i < m; ++i) {
        cert.chainNodes.push_back(elems[i].node);
        for (std::size_t t = 0; t < 3; ++t) {
            cert.dpCost[i][t] = _rootState.cost[i * 3 + t];
            cert.dpParent[i][t] = _rootState.parent[i * 3 + t];
        }
    }

    // Recompute the exit argmin exactly as solve() chose it.
    const CNodeId last = elems.back().node;
    const double *exit_cost = _rootState.cost.data() + (m - 1) * 3;
    double best = kInf;
    int best_t = -1;
    for (PartitionType t : allowed[last]) {
        const int ti = partitionTypeIndex(t);
        if (exit_cost[ti] < best) {
            best = exit_cost[ti];
            best_t = ti;
        }
    }
    cert.exitType = best_t;
}

double
DpKernel::evaluate(const PairCostModel &model,
                   const std::vector<PartitionType> &types) const
{
    const CondensedGraph &graph = _structure._graph;
    ACCPAR_REQUIRE(types.size() == graph.size(),
                   "assignment size mismatch");
    const std::vector<Edge> &edges = _structure._edges;
    const std::vector<std::int32_t> &edgeStart = _structure._edgeStart;
    double total = 0.0;
    for (std::size_t v = 0; v < graph.size(); ++v) {
        const CondensedNode &node = graph.node(static_cast<CNodeId>(v));
        total += model.nodeCost(static_cast<int>(v), _dims[v],
                                node.junction, types[v]);
        for (std::int32_t e = edgeStart[v]; e < edgeStart[v + 1]; ++e) {
            total += model.transitionCost(edges[e].from,
                                          types[edges[e].from], types[v],
                                          _boundary[e]);
        }
    }
    return total;
}

} // namespace accpar::core

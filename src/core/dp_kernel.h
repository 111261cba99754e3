/**
 * @file
 * Flattened partition-DP kernel: the one solver behind every plan.
 *
 * The paper's §5.2 sum-of-path-minima is a single recurrence over the
 * series-parallel structure of the condensed graph. The compiled form
 * is split in two layers:
 *
 *  - DpStructure flattens the structural decomposition tree
 *    (graph/sp_decomposition.h) once per problem — the condensed edge
 *    list in CSR form and a chain of elements with every transition
 *    resolved. Series spines become element sequences; each element is
 *    reached from the previous one by a transition, which is a single
 *    condensed edge, a parallel region (one branch per path between the
 *    two nodes, unfolded from the tree's binary folds) or a residual
 *    region (a non-series-parallel two-terminal region of at most
 *    kResidualExactLimit internal nodes, minimized by enumeration). It
 *    is immutable and shareable: every DpKernel over the same problem
 *    (all hierarchy candidates of a batched solve, every adaptive-ratio
 *    iteration) borrows one structure instead of recompiling it.
 *  - DpKernel adds what depends on the dims and the model: per-edge
 *    boundary element counts, the preallocated DP state tree, and the
 *    per-solve cost tables. Each solve() is:
 *
 *     1. fill a dense [node][type] node-cost table and a per-edge
 *        to-major [to][from] transition table through the model
 *        (memoized when a CostCache is attached), restricted to the
 *        allowed types; then minimize every residual region over its
 *        internal assignments by reading those two tables, into one
 *        more to-major block per region;
 *     2. run the DP as pure array arithmetic — one relaxation loop
 *        per element, (prev + transition) + node in the allowed-type
 *        order with a strict-< first-wins argmin, whether the
 *        transition is a table block or a parallel region — recording
 *        per-(element, type) parent pointers instead of assignments,
 *        and solving each parallel branch once per feasible entry
 *        type;
 *     3. reconstruct the winning assignment in one backtracking pass.
 *
 * The adaptive-ratio loop of the hierarchical solver reuses one kernel
 * across all its (alpha, restriction) iterations; only step 1 repeats.
 *
 * On structures of the legacy chain shape (hasChain()) every cost is
 * obtained through the same PairCostModel entry points as the original
 * chain DP (identical arguments, identical order of comparisons and
 * additions), so results are bit-identical to it — the property tests
 * assert this against the frozen legacy copy. On every structure the
 * result is the exact minimum of evaluateAssignment.
 */

#ifndef ACCPAR_CORE_DP_KERNEL_H
#define ACCPAR_CORE_DP_KERNEL_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/chain_dp.h"
#include "core/condensed_graph.h"
#include "core/cost_model.h"
#include "core/segment.h"
#include "graph/sp_decomposition.h"

namespace accpar::core {

struct NodeCertificate;

/**
 * Largest residual internal set the kernel enumerates (3^N
 * assignments). Beyond this, planning fails with AG009 rather than
 * returning an unproven plan.
 */
inline constexpr std::size_t kResidualExactLimit = 9;

/** One root-chain node and the condensed nodes strictly inside the
 *  transition that reaches it (empty for a single edge). */
struct BackboneStep
{
    CNodeId node = kNoEntryNode;
    std::vector<CNodeId> region;
};

/**
 * The dims- and model-independent compiled structure of one condensed
 * graph: condensed edges in CSR form and the flattened decomposition
 * with edge indices resolved. Immutable after construction, so any
 * number of DpKernels (including concurrent ones on different threads)
 * can borrow the same instance; @p graph must outlive it.
 */
class DpStructure
{
  public:
    /** Decomposes @p graph (graph::decomposeSpTree) and flattens the
     *  tree. Residual regions of any size compile; only a DpKernel
     *  requires them within kResidualExactLimit. */
    explicit DpStructure(const CondensedGraph &graph);
    DpStructure(const DpStructure &) = delete;
    DpStructure &operator=(const DpStructure &) = delete;
    ~DpStructure();

    const CondensedGraph &graph() const { return _graph; }
    std::size_t edgeCount() const { return _edges.size(); }

    /** Internal-node count of the largest residual region (0 when the
     *  graph is series-parallel). */
    std::size_t maxResidualSize() const;

    /**
     * True when the structure has only edges and distinct-join
     * parallels: every branch starts with an edge out of its fork and
     * ends with an edge into its join, and no residual region exists.
     * That is the legacy chain shape (core/segment.h), the one plan
     * certificates record.
     */
    bool hasChain() const { return _hasChain; }

    /** The structure as a legacy Chain; ConfigError unless hasChain(). */
    Chain chainView() const;

    /** The root chain in order, one step per element. */
    std::vector<BackboneStep> backbone() const;

  private:
    friend class DpKernel;

    struct CompiledPath;

    /** One condensed edge (boundary sizes live in the DpKernel — they
     *  depend on the dims). */
    struct Edge
    {
        CNodeId from = kNoEntryNode;
        CNodeId to = kNoEntryNode;
    };

    /**
     * How an element's state is reached from the previous state (the
     * fork's, for the first element of a branch).
     */
    struct Transition
    {
        /** Index of the transition's 3x3 block in the kernel's to-major
         *  table: a condensed edge, or edgeCount() + r for residual
         *  region r. -1 for a parallel and for the model's source. */
        std::int32_t block = -1;
        /** Parallel only: the branches, in the fork's successor order. */
        std::vector<CompiledPath> paths;

        bool isParallel() const { return !paths.empty(); }
    };

    struct CompiledElem
    {
        CNodeId node = kNoEntryNode;
        Transition in;
    };

    struct CompiledChain
    {
        std::vector<CompiledElem> elems;
    };

    /** One branch between a fork and its join. */
    struct CompiledPath
    {
        /** The branch's own elements; null when the branch is a single
         *  transition from the fork (an identity shortcut or a
         *  residual region). */
        std::unique_ptr<CompiledChain> chain;
        CNodeId lastNode = kNoEntryNode; ///< last node of the chain
        /** Last node (the fork when chain is null) -> join; a nested
         *  region when the branch closes at its parent's join. */
        Transition exit;
    };

    /** A non-series-parallel region enumerated by the kernel. */
    struct Residual
    {
        CNodeId source = kNoEntryNode;
        CNodeId sink = kNoEntryNode;
        std::vector<CNodeId> internal;
        /** One edge cost term: slots index @c internal; -1 stands for
         *  the region's source (in @c from) or sink (in @c to). */
        struct Term
        {
            std::int32_t edge = -1;
            std::int32_t from = -1;
            std::int32_t to = -1;
        };
        std::vector<Term> inner; ///< edges among internal nodes
        std::vector<Term> cross; ///< edges touching a terminal
    };

    std::int32_t edgeIndex(CNodeId from, CNodeId to) const;
    Transition compileTransition(const graph::SpTree &tree,
                                 graph::SpNodeId id);
    CompiledPath compilePath(const graph::SpTree &tree,
                             graph::SpNodeId id);
    std::int32_t compileResidual(const graph::SpNode &node);
    void appendElems(const graph::SpTree &tree,
                     const std::vector<graph::SpNodeId> &parts,
                     std::size_t count, CompiledChain &chain);
    bool chainShaped(const CompiledChain &chain) const;
    void collectNodes(const Transition &tr,
                      std::vector<CNodeId> &out) const;
    void collectNodes(const CompiledChain &chain,
                      std::vector<CNodeId> &out) const;

    const CondensedGraph &_graph;
    std::vector<Edge> _edges;
    /** Incoming-edge range of node v: [_edgeStart[v], _edgeStart[v+1]). */
    std::vector<std::int32_t> _edgeStart;
    std::vector<Residual> _residuals;
    std::unique_ptr<CompiledChain> _root;
    bool _hasChain = false;
};

/** Reusable flattened solver for one (structure, dims) pair. */
class DpKernel
{
  public:
    /**
     * Borrows an already-compiled @p structure (shared across kernels;
     * see DpStructure) and binds it to @p dims. @p structure and
     * @p dims must outlive the kernel and stay unchanged.
     */
    DpKernel(const DpStructure &structure,
             const std::vector<LayerDims> &dims);

    DpKernel(const DpKernel &) = delete;
    DpKernel &operator=(const DpKernel &) = delete;
    ~DpKernel();

    /**
     * Runs the DP under @p model's current configuration and ratio and
     * returns the exact minimum of evaluateAssignment under @p allowed.
     * May be called repeatedly with different models, alphas or
     * restrictions; the compiled structure is reused.
     */
    ChainDpResult solve(const PairCostModel &model,
                        const TypeRestrictions &allowed);

    /**
     * Cost of a fixed assignment over the compiled edge list;
     * bit-identical with evaluateAssignment.
     */
    double evaluate(const PairCostModel &model,
                    const std::vector<PartitionType> &types) const;

    /**
     * Copies the evidence of the most recent solve() into @p cert:
     * restrictions, cost tables (cells of disallowed types zeroed —
     * the tables are not cleared between solves, so those cells hold
     * stale values the DP never read), the root-chain Bellman rows
     * with parent pointers, and the recomputed exit argmin. Must be
     * called after solve() with the same @p allowed, on a structure
     * with hasChain(); alpha fields are the caller's (the kernel does
     * not know the ratio search).
     */
    void extractCertificate(const TypeRestrictions &allowed,
                            NodeCertificate &cert) const;

  private:
    using Edge = DpStructure::Edge;
    using Transition = DpStructure::Transition;
    using CompiledElem = DpStructure::CompiledElem;
    using CompiledChain = DpStructure::CompiledChain;
    using CompiledPath = DpStructure::CompiledPath;
    using Residual = DpStructure::Residual;

    struct ParState;

    /** Preallocated DP state of one chain: costs, parent pointers and
     *  the memo of every element reached by a parallel. */
    struct ChainState
    {
        /** cost[elem * 3 + t]; infinity = infeasible. */
        std::vector<double> cost;
        /** Entry-type index the optimum of (elem, t) came from; -1
         *  when unset (first element or infeasible). */
        std::vector<std::int8_t> parent;
        /** Per element: the memo of its incoming parallel, else null. */
        std::vector<std::unique_ptr<ParState>> pars;
    };

    /** Sub-state of one branch under one entry type. */
    struct PathState
    {
        ChainState chain; ///< empty when the path has no chain
        std::unique_ptr<ParState> exit;    ///< memo of a parallel exit
    };

    /** Per parallel transition: branch sub-states per (path, entry
     *  type), solved lazily once per entry type per solve(). */
    struct ParState
    {
        std::vector<std::array<PathState, 3>> paths;
        std::array<bool, 3> solved{};
    };

    void init();

    ChainState makeState(const CompiledChain &chain) const;
    std::unique_ptr<ParState> makeParState(const Transition &tr) const;
    void resetState(const CompiledChain &chain, ChainState &state) const;
    void solveResiduals();

    void solveChain(const CompiledChain &chain, ChainState &state,
                    int entry_ti);
    double transition(const Transition &tr, ParState *par, int from,
                      int to);
    double parallelTransition(const Transition &tr, ParState &par,
                              int tti, int t);
    int bestPathExit(const CompiledPath &path, PathState &state, int t);
    void backtrack(const CompiledChain &chain, ChainState &state,
                   int entry_ti, int exit_ti,
                   std::vector<PartitionType> &types);
    void backtrackTransition(const Transition &tr, ParState *par,
                             int from, int to,
                             std::vector<PartitionType> &types);

    const DpStructure &_structure;
    const std::vector<LayerDims> &_dims;

    /** Boundary tensor size per structure edge (dims-dependent). */
    std::vector<double> _boundary;

    ChainState _rootState;

    /** Scratch filled per solve(). */
    const TypeRestrictions *_allowed = nullptr;
    std::vector<double> _nodeTable; ///< [node * 3 + t]
    /**
     * To-major transition table: [block * 9 + to * 3 + from] — one
     * block per condensed edge, then one per residual region.
     */
    std::vector<double> _edgeTableT;
    /** Winning internal assignment per (residual, to * 3 + from),
     *  kResidualExactLimit type indices each. */
    std::vector<std::int8_t> _residualPick;
};

} // namespace accpar::core

#endif // ACCPAR_CORE_DP_KERNEL_H

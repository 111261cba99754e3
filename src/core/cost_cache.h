/**
 * @file
 * Opt-in memoization of inter/intra-layer cost-model terms.
 *
 * No production path attaches a CostCache: a cost term is a handful
 * of arithmetic operations, and on the measured traffic a lookup cost
 * more than the computation it saved (DESIGN.md §7 item 8). The frozen
 * tests/support/legacy_dp attaches one to its cost models, the
 * end-to-end benchmark passes one through core::SolveContext::memo to
 * report its counters, and DpKernel.AttachedCostCacheDoesNotChangePlans
 * checks that an attached cache leaves plans unchanged.
 *
 * Keys are exact: a cache entry is a pure function of (context, node,
 * alpha bit pattern, dims/boundary bit patterns, partition type pair),
 * where the context identifies the (group-rate pair, cost config) the
 * model was built from. Because every call site computes the term
 * through the same out-of-line PairCostModel code, a cached value is
 * bit-identical to what recomputation would produce — caching (and the
 * thread interleaving of a parallel solve) can never change a plan.
 * Lookups are thread-safe via sharded locking; hit/miss counters are
 * exposed for the benchmark.
 */

#ifndef ACCPAR_CORE_COST_CACHE_H
#define ACCPAR_CORE_COST_CACHE_H

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/cost_model.h"
#include "core/layer_dims.h"
#include "util/sync.h"

namespace accpar::core {

/** Cache effectiveness counters. */
struct CostCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    double
    hitRate() const
    {
        const std::uint64_t total = hits + misses;
        return total == 0 ? 0.0 : static_cast<double>(hits) /
                                      static_cast<double>(total);
    }
};

/** One memoized cost term's full key (compared exactly, never hashed-only). */
struct CostKey
{
    enum Kind : std::uint8_t { IntraLayer = 0, InterLayer = 1 };

    std::uint32_t context = 0; ///< registered (rates, config) id
    std::int32_t node = -1;    ///< condensed node (edge: producer) id
    std::uint8_t kind = IntraLayer;
    std::uint8_t from = 0;     ///< type index (IntraLayer: the type)
    std::uint8_t to = 0;       ///< type index (IntraLayer: unused)
    std::uint8_t junction = 0;
    double alpha = 0.0;        ///< exact bit pattern is the "bucket"
    /** Dims (b, di, dOut, spatialIn, spatialOut, kernelArea) for
     *  IntraLayer; boundary element count in d[0] for InterLayer. */
    double d[6] = {0, 0, 0, 0, 0, 0};

    bool operator==(const CostKey &other) const;
};

/** Hash over the exact bit patterns of a CostKey. */
struct CostKeyHash
{
    std::size_t operator()(const CostKey &key) const;
};

/**
 * Thread-safe memo table of cost terms. One instance may be shared by
 * any number of PairCostModels and solver threads; models built from
 * different rates or configs never alias because each registers its own
 * context id (matched by exact value, so reuse is collision-free).
 */
class CostCache
{
  public:
    CostCache() = default;

    CostCache(const CostCache &) = delete;
    CostCache &operator=(const CostCache &) = delete;

    /**
     * Returns the id of the (rates, config) context, registering it on
     * first sight. Contexts are compared by exact field values.
     */
    std::uint32_t contextId(const GroupRates &left, const GroupRates &right,
                            const CostModelConfig &config);

    /** True (and sets @p value) when @p key is cached; counts hit/miss. */
    bool lookup(const CostKey &key, double &value) const;

    /** Inserts @p key -> @p value (idempotent: first value wins, and any
     *  concurrent writer computed the identical value anyway). */
    void store(const CostKey &key, double value);

    CostCacheStats stats() const;
    std::size_t size() const;
    void clear();

  private:
    static constexpr std::size_t kShards = 16;

    struct Shard
    {
        mutable util::Mutex mutex{"CostCache::Shard::mutex"};
        std::unordered_map<CostKey, double, CostKeyHash> entries
            ACCPAR_GUARDED_BY(mutex);
    };

    struct Context
    {
        GroupRates left;
        GroupRates right;
        CostModelConfig config;
    };

    const Shard &shardFor(const CostKey &key) const;

    mutable Shard _shards[kShards];
    mutable std::atomic<std::uint64_t> _hits{0};
    mutable std::atomic<std::uint64_t> _misses{0};
    /** Reader/writer split: contexts are registered once and then only
     *  scanned, so concurrent solves take the shared side. */
    mutable util::SharedMutex _contextMutex{"CostCache::_contextMutex"};
    std::vector<Context> _contexts ACCPAR_GUARDED_BY(_contextMutex);
};

} // namespace accpar::core

#endif // ACCPAR_CORE_COST_CACHE_H

/**
 * @file
 * Seeded inputs of the end-to-end benchmark's workloads.
 *
 * Every request stream is a pure function of the workload's --seed.
 * The streams are stratified so that what a request costs does not
 * depend on the seed: the seed shuffles request order, draws search
 * seeds, batch sizes and layer widths, and lays out the generated
 * DAGs, but each round of requests has the same mix of models and
 * arrays. That keeps the spread between runs with different seeds
 * small enough to compare two commits.
 */

#ifndef ACCPAR_BENCH_E2E_INPUTS_H
#define ACCPAR_BENCH_E2E_INPUTS_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "models/catalog.h"
#include "util/rng.h"

namespace accpar::bench {

/** One request of an in-process workload (plan-cold, plan-dag,
 *  search). */
struct PlanJob
{
    /** Identity used by the checks and the digest. */
    std::string key;
    /** Request class: jobs of one stratum cost about the same (same
     *  model or DAG layout, same array). */
    int stratum = 0;
    /** Catalog entry; empty when the request carries DOT text. */
    std::string model;
    models::ModelParams params;
    /** The model as graph::toDot text (plan-dag requests). */
    std::shared_ptr<const std::string> dot;
    /** hw::parseArraySpec spec. */
    std::string array;
    /** Outer-search budget; 0 plans on the derived hierarchy. */
    int budgetIters = 0;
    std::uint64_t searchSeed = 1;
};

/**
 * The endless request stream of an in-process workload, built round by
 * round: every round asks each stratum once, in a fresh seeded order.
 * plan-cold draws each round's CNN batches; plan-dag repeats its
 * generated DAGs; search gives each round its own annealing seeds.
 *
 * The stratum counts (55, 25 and 5) are 5 mod 10, so with equal
 * samples per stratum the p50 and the p90 fall in the middle of a
 * stratum instead of on the boundary between two.
 */
class JobStream
{
  public:
    /** Throws ConfigError for a workload that is not in-process. */
    JobStream(const std::string &workload, std::uint64_t seed);

    /** The @p index-th request, generating rounds as needed; valid
     *  until the next call. */
    const PlanJob &at(std::size_t index);

    /** Requests per round, one per stratum. */
    std::size_t roundSize() const { return _strata.size(); }

    /** The request the set-up probe answers: a fixed stratum of 5-30
     *  ms, whatever the seed, so that process start-up still shows but
     *  spawn jitter does not dominate. */
    PlanJob probeJob() const;

  private:
    void addRound();

    std::string _workload;
    util::Rng _rng;
    std::vector<PlanJob> _strata;
    std::vector<PlanJob> _jobs;
};

/** Kinds of serve-mixed traffic. */
enum class ServeKind { Plan, Validate, Search, Stats };

const char *serveKindName(ServeKind kind);

/** One protocol request of serve-mixed. */
struct ServeRequest
{
    ServeKind kind = ServeKind::Stats;
    /** Plan or search key index, validate document index; -1 for
     *  stats. Requests with equal (kind, key) must get equal plans. */
    int key = -1;
    /** The request line, without the trailing newline; requests with
     *  equal (kind, key) share it. */
    std::shared_ptr<const std::string> line;
};

/**
 * Plan keys of serve-mixed, by popularity rank. The kServeHotKeys most
 * popular ask for small models on the paper's 128- and 256-board
 * arrays: answering them from the result cache still serializes a
 * sizeable plan, so the typical request costs about a millisecond of
 * work rather than a few thread wake-ups. The Zipf tail, on small
 * arrays, keeps missing (with certificate emission) and evicting from
 * the service's 512-entry result cache.
 */
inline constexpr int kServePlanKeys = 4096;
inline constexpr int kServeHotKeys = 48;

/** serve-mixed traffic. */
struct ServeTraffic
{
    /** One plan request per hot key: a long-running server has them
     *  cached, so each phase sends these before it starts timing. */
    std::vector<ServeRequest> warmup;
    /** 75% plan (Zipf(0.9) over kServePlanKeys keys), 12% validate (an
     *  inline model document, half of them with a plan document
     *  planned here), 8% iteration-budgeted search and 5% stats, in
     *  blocks of 100 with exactly that mix. */
    std::vector<ServeRequest> stream;
};

ServeTraffic serveTraffic(std::uint64_t seed, std::size_t count);

/** The stats request line every serve connection opens with. */
std::string statsLine(std::int64_t id);

} // namespace accpar::bench

#endif // ACCPAR_BENCH_E2E_INPUTS_H

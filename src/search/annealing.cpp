#include "search/annealing.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "analysis/plan_verifier.h"
#include "core/plan_evaluator.h"
#include "search/moves.h"
#include "util/error.h"
#include "util/rng.h"

namespace accpar::search {

namespace {

double
elapsedMs(std::chrono::steady_clock::time_point start)
{
    const auto elapsed = std::chrono::steady_clock::now() - start;
    return std::chrono::duration<double, std::milli>(elapsed).count();
}

/** One inner-oracle evaluation: DP solve + worst-path recompute. */
struct Evaluated
{
    core::PartitionPlan plan;
    double cost = 0.0;
};

Evaluated
evaluate(const core::PartitionProblem &problem,
         const hw::Hierarchy &hierarchy,
         const core::SolverOptions &solver,
         const core::SolveContext &context)
{
    Evaluated out;
    out.plan = core::solveHierarchy(problem, hierarchy, solver, context);
    out.cost = core::evaluatePlan(problem, hierarchy, out.plan,
                                  solver.cost)
                   .worstPathCost;
    return out;
}

/**
 * The iteration's private Rng substream: a pure function of (seed,
 * iteration), so a proposal and its acceptance draw depend only on
 * the state they are proposed from and the iteration number. The
 * golden-ratio stride keeps the raw states apart; Rng's own
 * SplitMix64 output function decorrelates them.
 */
util::Rng
iterationRng(std::uint64_t seed, int iteration)
{
    return util::Rng(seed +
                     0x9E3779B97F4A7C15ull *
                         (static_cast<std::uint64_t>(iteration) + 1));
}

bool
verifierClean(const core::PartitionProblem &problem,
              const hw::Hierarchy &hierarchy,
              const core::PartitionPlan &plan,
              const core::SolverOptions &solver)
{
    analysis::DiagnosticSink sink;
    analysis::VerifyOptions verify;
    verify.cost = solver.cost;
    analysis::verifyPlan(problem, hierarchy, plan, verify, sink);
    return !sink.failsStrict(/*strict=*/false);
}

} // namespace

EffectiveBudget
clampBudget(int budgetIters, double budgetMs, double remainingDeadlineMs)
{
    EffectiveBudget out;
    out.budgetIters = std::max(budgetIters, 0);
    out.budgetMs = std::max(budgetMs, 0.0);
    const bool deadline = remainingDeadlineMs > 0.0;
    if (deadline) {
        out.budgetMs = out.budgetMs > 0.0
                           ? std::min(out.budgetMs, remainingDeadlineMs)
                           : remainingDeadlineMs;
    }
    out.usable = out.budgetIters > 0 || out.budgetMs > 0.0;
    out.cacheable = out.usable && out.budgetMs == 0.0;
    return out;
}

AnnealingDriver::AnnealingDriver(const core::PartitionProblem &problem,
                                 const hw::AcceleratorGroup &array,
                                 SearchOptions options)
    : _problem(problem), _array(array), _options(std::move(options))
{
    if (_options.budgetIters <= 0 && _options.budgetMs <= 0.0)
        throw util::ConfigError(
            "outer search needs a budget: set budgetIters > 0 and/or "
            "budgetMs > 0");
}

SearchOutcome
AnnealingDriver::run(const core::SolveContext &context) const
{
    const auto start = std::chrono::steady_clock::now();

    // Candidate solves must not write into a caller's certificate.
    core::SolveContext inner = context;
    inner.certificate = nullptr;

    // Baseline: the DP solve of the seed hierarchy. The best-so-far
    // starts here, which is what makes the driver never-worse by
    // construction.
    OuterState current = OuterState::seed(_array);
    std::vector<hw::HierarchyDefect> defects;
    std::optional<hw::Hierarchy> seed_hierarchy =
        current.toHierarchy(defects);
    ACCPAR_REQUIRE(seed_hierarchy.has_value(),
                   "seed outer state failed hierarchy validation: "
                       << (defects.empty()
                               ? std::string("(no defects)")
                               : defects.front().toString()));
    Evaluated current_eval =
        evaluate(_problem, *seed_hierarchy, _options.solver, inner);

    SearchReport report;
    report.oracleSolves = 1; // the baseline solve
    report.seed = _options.seed;
    report.proposedByKind.assign(kMoveKindCount, 0);
    report.baselineCost = current_eval.cost;
    report.bestCost = current_eval.cost;
    report.anytime.push_back(AnytimePoint{0, current_eval.cost});

    OuterState best = current;
    hw::Hierarchy best_hierarchy = *seed_hierarchy;
    core::PartitionPlan best_plan = current_eval.plan;
    std::string current_signature = current.signature();
    report.bestSignature = current_signature;

    const bool timed = _options.budgetMs > 0.0;
    auto withinBudget = [&](int iteration) {
        if (_options.budgetIters > 0 &&
            iteration >= _options.budgetIters)
            return false;
        if (timed && elapsedMs(start) >= _options.budgetMs)
            return false;
        return true;
    };

    // Adopt a strictly cheaper candidate as the new best, but only
    // when the static verifier accepts its plan — the winner must
    // always audit clean.
    auto maybeAdoptBest = [&](const OuterState &state,
                              const hw::Hierarchy &hierarchy,
                              const Evaluated &eval, int iteration) {
        if (eval.cost >= report.bestCost)
            return;
        if (!verifierClean(_problem, hierarchy, eval.plan,
                           _options.solver)) {
            ++report.rejected;
            return;
        }
        best = state;
        best_hierarchy = hierarchy;
        best_plan = eval.plan;
        report.bestCost = eval.cost;
        report.bestSignature = best.signature();
        ++report.improved;
        report.anytime.push_back(AnytimePoint{iteration, eval.cost});
    };

    // A scored proposal: the candidate state, its tree and the inner
    // oracle's evaluation of it.
    struct Candidate
    {
        OuterState state;
        std::string signature;
        hw::Hierarchy hierarchy;
        Evaluated eval;
    };

    // Proposes one move from `from` on the iteration's substream
    // `rng` (left positioned after the proposal draws, for the
    // Metropolis draw) and scores it. Null moves and trees that fail
    // validation are not scored; an inapplicable move or a defective
    // tree counts as rejected.
    auto propose = [&](const OuterState &from,
                       const std::string &from_signature,
                       util::Rng &rng) -> std::optional<Candidate> {
        MoveKind kind;
        std::optional<OuterState> state = proposeMove(from, rng, kind);
        if (!state) {
            ++report.rejected;
            return std::nullopt;
        }
        ++report.proposedByKind[static_cast<std::size_t>(kind)];
        std::string signature = state->signature();
        if (signature == from_signature)
            return std::nullopt; // null move; nothing to evaluate
        defects.clear();
        std::optional<hw::Hierarchy> hierarchy =
            state->toHierarchy(defects);
        if (!hierarchy) {
            ++report.rejected;
            return std::nullopt;
        }
        Evaluated eval =
            evaluate(_problem, *hierarchy, _options.solver, inner);
        ++report.oracleSolves;
        return Candidate{std::move(*state), std::move(signature),
                         std::move(*hierarchy), std::move(eval)};
    };

    // The Metropolis chain: one proposal per iteration from the
    // current state, scored, then accepted or rejected before the
    // next iteration proposes.
    double temperature =
        _options.initialTemperature * report.baselineCost;
    int iteration = 0;
    while (withinBudget(iteration)) {
        ++iteration;
        temperature *= _options.coolingRate;
        util::Rng rng = iterationRng(_options.seed, iteration);
        std::optional<Candidate> candidate =
            propose(current, current_signature, rng);
        if (!candidate)
            continue;
        const double delta = candidate->eval.cost - current_eval.cost;
        const bool accept =
            delta < 0.0 ||
            (temperature > 0.0 &&
             rng.uniformDouble() < std::exp(-delta / temperature));
        maybeAdoptBest(candidate->state, candidate->hierarchy,
                       candidate->eval, iteration);
        if (accept) {
            current = std::move(candidate->state);
            current_signature = std::move(candidate->signature);
            current_eval = std::move(candidate->eval);
            ++report.accepted;
        }
    }

    // Greedy polish: strictly-improving proposals from the best
    // state. Bounded by polishIters and, for timed runs, the same
    // wall clock; on the same per-iteration Rng substreams.
    for (int i = 0; i < _options.polishIters; ++i) {
        if (timed && elapsedMs(start) >= _options.budgetMs)
            break;
        ++iteration;
        util::Rng rng = iterationRng(_options.seed, iteration);
        if (std::optional<Candidate> candidate =
                propose(best, report.bestSignature, rng))
            maybeAdoptBest(candidate->state, candidate->hierarchy,
                           candidate->eval, iteration);
    }

    report.iterations = iteration;
    return SearchOutcome{std::move(best), std::move(best_hierarchy),
                         std::move(best_plan), std::move(report)};
}

SearchOutcome
anneal(const core::PartitionProblem &problem,
       const hw::AcceleratorGroup &array, const SearchOptions &options,
       const core::SolveContext &context)
{
    return AnnealingDriver(problem, array, options).run(context);
}

} // namespace accpar::search

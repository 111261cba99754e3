/**
 * @file
 * Tests of the annealing outer loop (search/annealing.h) and its
 * planner integration: the never-worse property over seeds and
 * models, byte-identical winners across thread-pool sizes, the chain
 * pinned to recorded reports, clean verification and certificate
 * audits of every winner, and the deadline-clamping budget policy the
 * service applies.
 */

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/certificate_checker.h"
#include "analysis/diagnostic.h"
#include "analysis/plan_verifier.h"
#include "core/plan_io.h"
#include "core/planner.h"
#include "hw/hierarchy.h"
#include "hw/topology.h"
#include "models/zoo.h"
#include "search/annealing.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace {

using namespace accpar;

std::string
planBytes(const core::PartitionPlan &plan,
          const hw::Hierarchy &hierarchy)
{
    return core::planToJson(plan, hierarchy).dump(2);
}

TEST(AnnealingTest, NeverWorseThanBaselineAcrossSeedsAndModels)
{
    const hw::AcceleratorGroup array =
        hw::parseArraySpec("tpu-v2:2+tpu-v3:2");
    for (const std::string name : {"lenet", "alexnet"}) {
        const core::PartitionProblem problem(
            models::buildModel(name, 32));
        for (const std::uint64_t seed : {1u, 2u, 3u}) {
            search::SearchOptions options;
            options.seed = seed;
            options.budgetIters = 24;
            const search::SearchOutcome outcome =
                search::anneal(problem, array, options);

            EXPECT_LE(outcome.report.bestCost,
                      outcome.report.baselineCost)
                << name << " seed " << seed;
            // The anytime curve starts at the baseline and only ever
            // strictly improves.
            ASSERT_FALSE(outcome.report.anytime.empty());
            EXPECT_EQ(outcome.report.anytime.front().iteration, 0);
            EXPECT_EQ(outcome.report.anytime.front().bestCost,
                      outcome.report.baselineCost);
            for (std::size_t i = 1;
                 i < outcome.report.anytime.size(); ++i)
                EXPECT_LT(outcome.report.anytime[i].bestCost,
                          outcome.report.anytime[i - 1].bestCost);
            EXPECT_EQ(outcome.report.anytime.back().bestCost,
                      outcome.report.bestCost);

            // Every winner passes the static verifier.
            analysis::DiagnosticSink sink;
            analysis::VerifyOptions verify;
            verify.cost = options.solver.cost;
            analysis::verifyPlan(problem, outcome.bestHierarchy,
                                 outcome.bestPlan, verify, sink);
            EXPECT_FALSE(sink.failsStrict(false))
                << name << " seed " << seed << ":\n"
                << sink.renderText();
        }
    }
}

TEST(AnnealingTest, IdenticalSeedsGiveByteIdenticalWinnersAcrossJobs)
{
    const hw::AcceleratorGroup array =
        hw::parseArraySpec("tpu-v2:2+tpu-v3:2");
    const graph::Graph model = models::buildModel("alexnet", 64);

    auto searched = [&](int jobs) {
        PlanRequest request(model, array);
        request.jobs = jobs;
        request.options.search.budgetIters = 24;
        request.options.search.seed = 5;
        Planner planner;
        const PlanResult result = planner.plan(request);
        EXPECT_TRUE(result.searchedHierarchy);
        return planBytes(result.plan, *result.searchedHierarchy);
    };

    const std::string sequential = searched(1);
    EXPECT_EQ(sequential, searched(4));
    EXPECT_EQ(sequential, searched(1)); // and across repeated runs
}

TEST(AnnealingTest, ChainMatchesParentRecord)
{
    // Reports recorded from the speculative driver that the
    // sequential chain replaced; its chain was the same for every
    // window size. oracleSolves is its count with a window of one,
    // the only one without discarded solves. Costs are pinned as
    // exact bit patterns.
    struct Record
    {
        const char *model;
        std::int64_t batch;
        const char *array;
        std::uint64_t seed;
        const char *bestSignature;
        std::uint64_t bestCost;
        int iterations;
        int accepted;
        int rejected;
        int improved;
        int oracleSolves;
        std::vector<int> proposedByKind;
        std::vector<std::pair<int, std::uint64_t>> anytime;
    };
    const std::vector<Record> records = {
        {"alexnet", 64, "tpu-v2:2+tpu-v3:2", 5, "((0 1) (2 3))",
         0x3f84a465a5b2b73eull, 40, 2, 0, 0, 29, {6, 8, 7, 19},
         {{0, 0x3f84a465a5b2b73eull}}},
        {"vgg16", 512, "tpu-v2:8+tpu-v3:8", 1,
         "((((0 1) (2 3)) ((4 13) (8 10))) "
         "(((6 9) (7 11)) ((12 5) (14 15))))",
         0x3fba0067f5236542ull, 40, 9, 0, 2, 38, {12, 10, 9, 9},
         {{0, 0x3fba5c08261e2189ull},
          {7, 0x3fba4ea3849ef496ull},
          {29, 0x3fba0067f5236542ull}}},
    };

    util::ThreadPool pool(4);
    const std::vector<util::ThreadPool *> pools = {nullptr, &pool};
    for (const Record &record : records) {
        const core::PartitionProblem problem(
            models::buildModel(record.model, record.batch));
        search::SearchOptions options;
        options.seed = record.seed;
        options.budgetIters = 24;
        for (util::ThreadPool *lanes : pools) {
            const std::string label =
                std::string(record.model) +
                (lanes ? " with 4 jobs" : " sequential");
            const search::SearchReport report =
                search::anneal(problem, hw::parseArraySpec(record.array),
                               options, core::SolveContext{lanes})
                    .report;
            EXPECT_EQ(report.bestSignature, record.bestSignature)
                << label;
            EXPECT_EQ(std::bit_cast<std::uint64_t>(report.bestCost),
                      record.bestCost)
                << label;
            EXPECT_EQ(report.iterations, record.iterations) << label;
            EXPECT_EQ(report.accepted, record.accepted) << label;
            EXPECT_EQ(report.rejected, record.rejected) << label;
            EXPECT_EQ(report.improved, record.improved) << label;
            EXPECT_EQ(report.oracleSolves, record.oracleSolves) << label;
            EXPECT_EQ(report.proposedByKind, record.proposedByKind)
                << label;
            std::vector<std::pair<int, std::uint64_t>> anytime;
            for (const search::AnytimePoint &point : report.anytime)
                anytime.emplace_back(
                    point.iteration,
                    std::bit_cast<std::uint64_t>(point.bestCost));
            EXPECT_EQ(anytime, record.anytime) << label;
        }
    }
}

TEST(AnnealingTest, PlannerWinnerCarriesCleanCertificate)
{
    const hw::AcceleratorGroup array =
        hw::parseArraySpec("tpu-v2:2+tpu-v3:2");
    const graph::Graph model = models::buildModel("lenet", 32);

    PlanRequest request(model, array);
    request.options.search.budgetIters = 24;
    request.options.search.seed = 2;
    request.options.emitCertificate = true;
    Planner planner;
    const PlanResult result = planner.plan(request);

    ASSERT_TRUE(result.searchedHierarchy);
    ASSERT_TRUE(result.searchReport);
    ASSERT_TRUE(result.certificate);
    EXPECT_LE(result.searchReport->bestCost,
              result.searchReport->baselineCost);

    const core::PartitionProblem problem(model);
    analysis::DiagnosticSink sink;
    analysis::checkCertificate(problem, *result.searchedHierarchy,
                               result.plan, *result.certificate,
                               analysis::CheckOptions{}, sink);
    EXPECT_EQ(sink.errorCount(), 0u) << sink.renderText();
}

TEST(AnnealingTest, DriverRequiresABudget)
{
    const hw::AcceleratorGroup array = hw::parseArraySpec("tpu-v3:4");
    const core::PartitionProblem problem(
        models::buildModel("lenet", 32));
    EXPECT_THROW(
        search::AnnealingDriver(problem, array, search::SearchOptions{}),
        util::ConfigError);
}

TEST(AnnealingTest, PlannerRejectsSearchOnFrozenStrategies)
{
    const hw::AcceleratorGroup array = hw::parseArraySpec("tpu-v3:4");
    PlanRequest request(models::buildModel("lenet", 32), array);
    request.strategy = "dp";
    request.options.search.budgetIters = 4;
    Planner planner;
    EXPECT_THROW(planner.plan(request), util::ConfigError);
}

TEST(ClampBudgetTest, NoBudgetIsUnusable)
{
    const search::EffectiveBudget budget =
        search::clampBudget(0, 0.0, 0.0);
    EXPECT_FALSE(budget.usable);
    EXPECT_FALSE(budget.cacheable);
}

TEST(ClampBudgetTest, IterationOnlyBudgetIsCacheable)
{
    const search::EffectiveBudget budget =
        search::clampBudget(64, 0.0, 0.0);
    EXPECT_TRUE(budget.usable);
    EXPECT_TRUE(budget.cacheable);
    EXPECT_EQ(budget.budgetIters, 64);
    EXPECT_EQ(budget.budgetMs, 0.0);
}

TEST(ClampBudgetTest, WallClockBudgetIsNeverCacheable)
{
    const search::EffectiveBudget budget =
        search::clampBudget(0, 250.0, 0.0);
    EXPECT_TRUE(budget.usable);
    EXPECT_FALSE(budget.cacheable);
    EXPECT_EQ(budget.budgetMs, 250.0);
}

TEST(ClampBudgetTest, DeadlineClampsWallClockBudget)
{
    const search::EffectiveBudget budget =
        search::clampBudget(0, 500.0, 120.0);
    EXPECT_TRUE(budget.usable);
    EXPECT_FALSE(budget.cacheable);
    EXPECT_EQ(budget.budgetMs, 120.0);
}

TEST(ClampBudgetTest, DeadlineCapsIterationOnlyBudget)
{
    // A deadline adds a wall-clock cap to an iteration budget, which
    // also makes the run non-cacheable (the cap may truncate it).
    const search::EffectiveBudget budget =
        search::clampBudget(1000000, 0.0, 80.0);
    EXPECT_TRUE(budget.usable);
    EXPECT_FALSE(budget.cacheable);
    EXPECT_EQ(budget.budgetIters, 1000000);
    EXPECT_EQ(budget.budgetMs, 80.0);
}

} // namespace

/**
 * @file
 * Bit-identity tests for the dispatched batch kernels (DESIGN.md §17):
 * the scalar reference and whatever vector backend the build/CPU
 * selected must agree bit for bit, from the raw kernel primitives all
 * the way up to whole plans and certificates. On scalar-only builds
 * the comparisons are trivially between two scalar runs and still
 * exercise the batched code paths (multisection, batched sweeps,
 * solveHierarchyBatch) against their sequential references.
 *
 * EXPECT_EQ on doubles throughout, never EXPECT_NEAR — the backends
 * promise the identical IEEE-754 operation sequence per lane.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/batch_kernels.h"
#include "core/certificate.h"
#include "core/certificate_io.h"
#include "core/chain_dp.h"
#include "core/dp_kernel.h"
#include "core/hierarchical_solver.h"
#include "core/plan_io.h"
#include "core/ratio_solver.h"
#include "hw/hierarchy.h"
#include "hw/topology.h"
#include "models/zoo.h"
#include "support/graph_gen.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace accpar;
using testsupport::randomModel;
using testsupport::randomSeriesParallel;

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Restores the force-scalar flag on scope exit. */
class ScopedForceScalar
{
  public:
    explicit ScopedForceScalar(bool force)
        : _prev(core::setBatchKernelForceScalar(force))
    {
    }
    ~ScopedForceScalar() { core::setBatchKernelForceScalar(_prev); }

  private:
    bool _prev;
};

TEST(Simd, Candidates9MatchesScalarOnRandomTables)
{
    const core::BatchKernelOps &scalar = core::scalarBatchKernelOps();
    const core::BatchKernelOps &active = core::activeBatchKernelOps();

    util::Rng rng(20260807);
    for (int trial = 0; trial < 200; ++trial) {
        // prev is readable through index 3 and transT through index 9
        // per the kernel contract; infeasible source states are +inf
        // exactly as the DP leaves them.
        double prev[4], transT[10], node[3];
        for (int i = 0; i < 4; ++i)
            prev[i] = rng.chance(0.2)
                          ? kInf
                          : rng.uniformDouble(0.0, 1e9);
        for (int i = 0; i < 10; ++i)
            transT[i] = rng.uniformDouble(0.0, 1e9);
        for (int i = 0; i < 3; ++i)
            node[i] = rng.uniformDouble(0.0, 1e9);

        double cand_scalar[12], cand_active[12];
        scalar.candidates9(prev, transT, node, cand_scalar);
        active.candidates9(prev, transT, node, cand_active);
        for (int i = 0; i < 9; ++i) {
            if (std::isinf(cand_scalar[i])) {
                EXPECT_TRUE(std::isinf(cand_active[i]))
                    << "trial " << trial << " cell " << i;
                continue;
            }
            EXPECT_EQ(cand_scalar[i], cand_active[i])
                << "trial " << trial << " cell " << i;
        }
    }
}

TEST(Simd, RatioBothSidesMatchesScalarAcrossSizesAndTails)
{
    const core::BatchKernelOps &scalar = core::scalarBatchKernelOps();
    const core::BatchKernelOps &active = core::activeBatchKernelOps();

    util::Rng rng(97);
    for (int trial = 0; trial < 60; ++trial) {
        // Synthetic term arrays of every kind, sized to hit empty,
        // partial-group and multi-group cases in the vector sweep.
        const std::size_t terms = static_cast<std::size_t>(
            rng.uniformInt(0, 40));
        std::vector<std::uint8_t> kind(terms);
        std::vector<double> a(terms), s0(terms), s1(terms), fl(terms);
        for (std::size_t i = 0; i < terms; ++i) {
            kind[i] = static_cast<std::uint8_t>(rng.uniformInt(0, 3));
            a[i] = rng.uniformDouble(1.0, 1e6);
            s0[i] = rng.uniformDouble(0.0, 1e3);
            s1[i] = rng.uniformDouble(0.0, 1e3);
            fl[i] = rng.uniformDouble(1e6, 1e12);
        }
        core::RatioTermsView view;
        view.kind = kind.data();
        view.a = a.data();
        view.aSide0 = s0.data();
        view.aSide1 = s1.data();
        view.flops = fl.data();
        view.count = terms;
        view.time = rng.chance(0.8);
        view.includeCompute = rng.chance(0.8);
        view.bpe = rng.chance(0.5) ? 2.0 : 4.0;
        view.link[0] = rng.uniformDouble(1e8, 1e11);
        view.link[1] = rng.uniformDouble(1e8, 1e11);
        view.compute[0] = rng.uniformDouble(1e12, 1e15);
        view.compute[1] = rng.uniformDouble(1e12, 1e15);

        // Deliberately unaligned: every pointer handed to the kernels
        // is offset one double into its backing buffer.
        std::vector<double> alphas(10), left(10), right(10);
        std::vector<double> left_ref(10), right_ref(10);
        for (std::size_t n = 1; n <= 9; ++n) {
            for (std::size_t i = 1; i <= n; ++i)
                alphas[i] = rng.uniformDouble(0.01, 0.99);
            scalar.ratioBothSides(view, alphas.data() + 1, n,
                                  left_ref.data() + 1,
                                  right_ref.data() + 1);
            active.ratioBothSides(view, alphas.data() + 1, n,
                                  left.data() + 1, right.data() + 1);
            for (std::size_t i = 1; i <= n; ++i) {
                EXPECT_EQ(left_ref[i], left[i])
                    << "trial " << trial << " n " << n << " lane " << i;
                EXPECT_EQ(right_ref[i], right[i])
                    << "trial " << trial << " n " << n << " lane " << i;
            }
        }
    }
}

TEST(Simd, TablesBatchSweepMatchesSequentialSideTotals)
{
    util::Rng rng(555);
    for (int trial = 0; trial < 15; ++trial) {
        const core::PartitionProblem problem(
            randomSeriesParallel(rng, 4000 + trial));
        core::PairCostModel model = randomModel(rng);
        core::DpKernel kernel(problem.dpStructure(), problem.baseDims());
        const core::ChainDpResult dp = kernel.solve(
            model, core::unrestrictedTypes(problem.condensed()));
        const core::RatioCostTables tables(problem.condensed(),
                                           problem.baseDims(), model,
                                           dp.types);

        std::vector<double> alphas(10), left(10), right(10);
        for (std::size_t n = 1; n <= 9; ++n) {
            for (std::size_t i = 1; i <= n; ++i)
                alphas[i] = rng.uniformDouble(0.01, 0.99);
            tables.sideTotalsBatch(alphas.data() + 1, n,
                                   left.data() + 1, right.data() + 1);
            for (std::size_t i = 1; i <= n; ++i) {
                EXPECT_EQ(tables.sideTotal(core::Side::Left, alphas[i]),
                          left[i])
                    << "trial " << trial << " n " << n << " lane " << i;
                EXPECT_EQ(tables.sideTotal(core::Side::Right, alphas[i]),
                          right[i])
                    << "trial " << trial << " n " << n << " lane " << i;
            }
        }
    }
}

TEST(Simd, ExactMultisectionMatchesPerAlphaBisection)
{
    util::Rng rng(321);
    for (int trial = 0; trial < 15; ++trial) {
        const core::PartitionProblem problem(
            randomSeriesParallel(rng, 5000 + trial));
        core::PairCostModel model = randomModel(rng);
        core::DpKernel kernel(problem.dpStructure(), problem.baseDims());
        const core::ChainDpResult dp = kernel.solve(
            model, core::unrestrictedTypes(problem.condensed()));
        const core::RatioCostTables tables(problem.condensed(),
                                           problem.baseDims(), model,
                                           dp.types);

        core::RatioBracket batched, sequential;
        const double alpha_batched =
            core::solveRatioExact(tables, &batched);
        const double alpha_sequential =
            core::solveRatioExactPerAlpha(tables, &sequential);
        EXPECT_EQ(alpha_batched, alpha_sequential) << "trial " << trial;
        EXPECT_EQ(batched.lo, sequential.lo) << "trial " << trial;
        EXPECT_EQ(batched.hi, sequential.hi) << "trial " << trial;
    }
}

TEST(Simd, ZooAndTransformerPlansCertificatesMatchForcedScalar)
{
    // Whole-solve bit-identity across backends, certificates included,
    // on the real networks in both ratio policies.
    for (const char *name : {"vgg16", "resnet50", "bert-base"}) {
        const core::PartitionProblem problem(
            models::buildModel(name, 64));
        const hw::Hierarchy hierarchy(
            hw::heterogeneousTpuArrayForLevels(3));
        for (core::RatioPolicy policy :
             {core::RatioPolicy::PaperLinear,
              core::RatioPolicy::ExactBalance}) {
            core::SolverOptions options;
            options.ratioPolicy = policy;

            core::PlanCertificate cert_active;
            core::SolveContext ctx_active;
            ctx_active.certificate = &cert_active;
            const core::PartitionPlan plan_active = core::solveHierarchy(
                problem, hierarchy, options, ctx_active);

            core::PlanCertificate cert_scalar;
            core::SolveContext ctx_scalar;
            ctx_scalar.certificate = &cert_scalar;
            ScopedForceScalar forced(true);
            const core::PartitionPlan plan_scalar = core::solveHierarchy(
                problem, hierarchy, options, ctx_scalar);

            EXPECT_EQ(
                core::planToJson(plan_active, hierarchy).dump(),
                core::planToJson(plan_scalar, hierarchy).dump())
                << name << " policy "
                << core::ratioPolicyName(policy);
            EXPECT_EQ(
                core::certificateToJson(cert_active, hierarchy).dump(),
                core::certificateToJson(cert_scalar, hierarchy).dump())
                << name << " policy "
                << core::ratioPolicyName(policy);
        }
    }
}

TEST(Simd, KernelsSharingOneStructureMatchFreshKernels)
{
    util::Rng rng(2468);
    const core::PartitionProblem problem(randomSeriesParallel(rng, 7));
    core::PairCostModel model = randomModel(rng);
    const core::TypeRestrictions allowed =
        core::unrestrictedTypes(problem.condensed());

    // Two long-lived kernels borrow the problem's structure and solve
    // interleaved; a fresh kernel per alpha is the reference. Reused
    // DP state must not leak between solves: same bits.
    core::DpKernel shared_a(problem.dpStructure(), problem.baseDims());
    core::DpKernel shared_b(problem.dpStructure(), problem.baseDims());
    for (double alpha : {0.5, 0.66, 0.125, 0.9}) {
        model.setAlpha(alpha);
        core::DpKernel fresh(problem.dpStructure(), problem.baseDims());
        const core::ChainDpResult ref = fresh.solve(model, allowed);
        const core::ChainDpResult a = shared_a.solve(model, allowed);
        const core::ChainDpResult b = shared_b.solve(model, allowed);
        EXPECT_EQ(ref.cost, a.cost) << "alpha " << alpha;
        EXPECT_EQ(ref.types, a.types) << "alpha " << alpha;
        EXPECT_EQ(ref.cost, b.cost) << "alpha " << alpha;
        EXPECT_EQ(ref.types, b.types) << "alpha " << alpha;
    }
}

TEST(Simd, SolveHierarchyBatchMatchesPerCandidateSolves)
{
    const core::PartitionProblem problem(
        models::buildModel("resnet50", 64));
    std::vector<hw::Hierarchy> candidates;
    for (int levels : {2, 3, 4})
        candidates.emplace_back(
            hw::heterogeneousTpuArrayForLevels(levels));
    std::vector<const hw::Hierarchy *> pointers;
    for (const hw::Hierarchy &h : candidates)
        pointers.push_back(&h);

    core::SolverOptions options;
    options.ratioPolicy = core::RatioPolicy::ExactBalance;

    const std::vector<core::PartitionPlan> sequential =
        core::solveHierarchyBatch(problem, pointers, options, {});

    util::ThreadPool pool(4);
    core::SolveContext pooled;
    pooled.pool = &pool;
    const std::vector<core::PartitionPlan> parallel =
        core::solveHierarchyBatch(problem, pointers, options, pooled);

    ASSERT_EQ(sequential.size(), candidates.size());
    ASSERT_EQ(parallel.size(), candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        const std::string reference =
            core::planToJson(
                core::solveHierarchy(problem, candidates[i], options),
                candidates[i])
                .dump();
        EXPECT_EQ(reference,
                  core::planToJson(sequential[i], candidates[i]).dump())
            << "candidate " << i;
        EXPECT_EQ(reference,
                  core::planToJson(parallel[i], candidates[i]).dump())
            << "candidate " << i;
    }

    // Certificate emission is per-solve evidence; the batch entry
    // point must refuse a certificate-carrying context outright.
    core::PlanCertificate cert;
    core::SolveContext with_cert;
    with_cert.certificate = &cert;
    EXPECT_THROW(
        core::solveHierarchyBatch(problem, pointers, options, with_cert),
        util::ConfigError);
}

TEST(Simd, ActiveBackendReportsCoherently)
{
    const std::string name = core::batchKernelVariantName();
    const int lanes = core::batchKernelLanes();
    EXPECT_TRUE(name == "scalar" || name == "avx2" || name == "neon")
        << name;
    EXPECT_EQ(lanes == 1, name == "scalar");

    ScopedForceScalar forced(true);
    EXPECT_STREQ(core::batchKernelVariantName(), "scalar");
    EXPECT_EQ(core::batchKernelLanes(), 1);
}

} // namespace

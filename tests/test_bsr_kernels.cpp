/**
 * @file
 * Tests of the block-sparse kernels: SDD/DSD GEMMs and the sparse
 * softmax pipeline, against dense references restricted to the layout.
 */

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/exec_context.hpp"
#include "common/rng.hpp"
#include "kernels/bsr_gemm.hpp"
#include "kernels/bsr_softmax.hpp"
#include "sim/cost_model.hpp"
#include "sparse/patterns.hpp"
#include "tensor/tensor_ops.hpp"
#include "workload/corpus.hpp"

namespace softrec {
namespace {

/** Shared context: honors SOFTREC_THREADS so suites can run threaded. */
ExecContext
execCtx()
{
    return ExecContext::fromEnv();
}

constexpr int64_t kL = 128;
constexpr int64_t kBs = 16;
constexpr int64_t kDh = 8;

BsrLayout
testLayout()
{
    BigBirdParams params;
    params.blockSize = kBs;
    params.windowBlocks = 1;
    params.globalBlocks = 1;
    params.randomBlocks = 2;
    params.seed = 99;
    return bigBirdPattern(kL, params);
}

struct Inputs
{
    Tensor<Half> q{Shape({kL, kDh})};
    Tensor<Half> k{Shape({kL, kDh})};
    Tensor<Half> v{Shape({kL, kDh})};
};

Inputs
makeInputs(uint64_t seed)
{
    Inputs in;
    Rng rng(seed);
    fillNormal(in.q, rng, 0.0, 0.7);
    fillNormal(in.k, rng, 0.0, 0.7);
    fillNormal(in.v, rng, 0.0, 0.7);
    return in;
}

TEST(BsrSdd, MatchesDenseGemmOnNonZeroBlocks)
{
    const BsrLayout layout = testLayout();
    const Inputs in = makeInputs(1);
    BsrSddDesc desc;
    desc.layout = &layout;
    desc.dHead = kDh;
    desc.scale = 0.35;
    BsrMatrix s(layout);
    bsrSddRun(execCtx(), desc, in.q, in.k, s);

    const Tensor<Half> dense = s.toDense();
    for (int64_t i = 0; i < kL; ++i) {
        for (int64_t j = 0; j < kL; ++j) {
            if (!layout.hasBlock(i / kBs, j / kBs)) {
                EXPECT_TRUE(dense.at(i, j).isZero());
                continue;
            }
            float expect = 0.0f;
            for (int64_t d = 0; d < kDh; ++d)
                expect += float(in.q.at(i, d)) * float(in.k.at(j, d));
            expect *= 0.35f;
            EXPECT_NEAR(float(dense.at(i, j)), expect,
                        0.01f + 0.005f * std::abs(expect));
        }
    }
}

TEST(BsrDsd, MatchesDenseMatmulWithStructuralZeros)
{
    const BsrLayout layout = testLayout();
    const Inputs in = makeInputs(2);
    // Build a sparse P from random values.
    Rng rng(3);
    Tensor<Half> p_dense(Shape({kL, kL}));
    fillNormal(p_dense, rng, 0.0, 0.3);
    const BsrMatrix p = BsrMatrix::fromDense(layout, p_dense);

    BsrDsdDesc desc;
    desc.layout = &layout;
    desc.dHead = kDh;
    Tensor<Half> o(Shape({kL, kDh}));
    bsrDsdRun(execCtx(), desc, p, in.v, o);

    const Tensor<Half> p_masked = p.toDense();
    for (int64_t i = 0; i < kL; ++i) {
        for (int64_t d = 0; d < kDh; ++d) {
            float expect = 0.0f;
            for (int64_t j = 0; j < kL; ++j)
                expect +=
                    float(p_masked.at(i, j)) * float(in.v.at(j, d));
            EXPECT_NEAR(float(o.at(i, d)), expect,
                        0.02f + 0.01f * std::abs(expect));
        }
    }
}

TEST(BsrSoftmax, MatchesPerRowReferenceOverStoredElements)
{
    const BsrLayout layout = testLayout();
    Rng rng(4);
    Tensor<Half> dense = makeAttentionScores(rng, kL, kL);
    const BsrMatrix in = BsrMatrix::fromDense(layout, dense);
    BsrMatrix out(layout);
    BsrSoftmaxDesc desc;
    desc.layout = &layout;
    bsrRowSoftmaxRun(execCtx(), desc, in, out);

    const Tensor<Half> in_dense = in.toDense();
    const Tensor<Half> out_dense = out.toDense();
    for (int64_t i = 0; i < kL; ++i) {
        // Reference over the row's stored positions only.
        double m = -1e300;
        for (int64_t j = 0; j < kL; ++j)
            if (layout.hasBlock(i / kBs, j / kBs))
                m = std::max(m, double(float(in_dense.at(i, j))));
        double d_sum = 0.0;
        for (int64_t j = 0; j < kL; ++j)
            if (layout.hasBlock(i / kBs, j / kBs))
                d_sum += std::exp(double(float(in_dense.at(i, j))) - m);
        float sum = 0.0f;
        for (int64_t j = 0; j < kL; ++j) {
            if (!layout.hasBlock(i / kBs, j / kBs))
                continue;
            const double expect =
                std::exp(double(float(in_dense.at(i, j))) - m) / d_sum;
            EXPECT_NEAR(float(out_dense.at(i, j)), expect, 2e-3);
            sum += float(out_dense.at(i, j));
        }
        EXPECT_NEAR(sum, 1.0f, 0.03f);
    }
}

TEST(BsrDecomposed, ComposesToBaselineSparseSoftmax)
{
    const BsrLayout layout = testLayout();
    Rng rng(5);
    const BsrMatrix in =
        BsrMatrix::fromDense(layout, makeAttentionScores(rng, kL, kL));
    BsrSoftmaxDesc desc;
    desc.layout = &layout;

    BsrMatrix baseline(layout);
    bsrRowSoftmaxRun(execCtx(), desc, in, baseline);

    BsrMatrix x_prime(layout);
    std::vector<float> lmax, lsum, recon;
    bsrLsRun(execCtx(), desc, in, x_prime, lmax, lsum);
    bsrIrRun(execCtx(), desc, lmax, lsum, recon);
    BsrMatrix recomposed(layout);
    bsrGsRun(execCtx(), desc, x_prime, recon, recomposed);

    EXPECT_LT(maxAbsDiff(toFloat(recomposed.toDense()),
                         toFloat(baseline.toDense())),
              2e-3);
}

TEST(BsrFusedSdd, MatchesUnfusedPipeline)
{
    const BsrLayout layout = testLayout();
    const Inputs in = makeInputs(6);
    BsrSddDesc plain;
    plain.layout = &layout;
    plain.dHead = kDh;
    plain.scale = 0.35;
    BsrMatrix s(layout);
    bsrSddRun(execCtx(), plain, in.q, in.k, s);
    BsrSoftmaxDesc sub;
    sub.layout = &layout;
    BsrMatrix x_ref(layout);
    std::vector<float> m_ref, d_ref;
    bsrLsRun(execCtx(), sub, s, x_ref, m_ref, d_ref);

    BsrSddDesc fused = plain;
    fused.fuseLocalSoftmax = true;
    BsrMatrix x_fused(layout);
    std::vector<float> m_fused, d_fused;
    bsrSddRun(execCtx(), fused, in.q, in.k, x_fused, &m_fused, &d_fused);

    EXPECT_LT(maxAbsDiff(toFloat(x_fused.toDense()),
                         toFloat(x_ref.toDense())),
              5e-3);
    for (size_t i = 0; i < m_ref.size(); ++i) {
        EXPECT_NEAR(m_fused[i], m_ref[i], 5e-3);
        EXPECT_NEAR(d_fused[i], d_ref[i],
                    5e-3 + 0.02 * std::abs(d_ref[i]));
    }
}

TEST(BsrFusedSdd, RejectsNanQueryInCheckedBuild)
{
    // A NaN query element poisons its score row in every stored block;
    // the fused LS must not report those rows as fully masked.
    if (!kCheckedBuild)
        GTEST_SKIP() << "NaN checks are compiled into checked builds";
    const BsrLayout layout = testLayout();
    Inputs in = makeInputs(8);
    in.q.at(20, 3) = Half(std::numeric_limits<float>::quiet_NaN());
    BsrSddDesc fused;
    fused.layout = &layout;
    fused.dHead = kDh;
    fused.scale = 0.35;
    fused.fuseLocalSoftmax = true;
    BsrMatrix s(layout);
    std::vector<float> lmax, lsum;
    EXPECT_THROW(bsrSddRun(execCtx(), fused, in.q, in.k, s, &lmax, &lsum),
                 std::logic_error);
}

TEST(BsrFusedDsd, MatchesGsThenDsd)
{
    const BsrLayout layout = testLayout();
    const Inputs in = makeInputs(7);
    Rng rng(8);
    const BsrMatrix x_prime =
        BsrMatrix::fromDense(layout, makeAttentionScores(rng, kL, kL));
    std::vector<float> recon(size_t(layout.nnzBlocks() * kBs));
    for (float &r : recon)
        r = float(rng.uniform(0.0, 0.1));

    // Unfused: GS then plain DSD.
    BsrSoftmaxDesc sub;
    sub.layout = &layout;
    BsrMatrix scaled(layout);
    bsrGsRun(execCtx(), sub, x_prime, recon, scaled);
    BsrDsdDesc plain;
    plain.layout = &layout;
    plain.dHead = kDh;
    Tensor<Half> o_ref(Shape({kL, kDh}));
    bsrDsdRun(execCtx(), plain, scaled, in.v, o_ref);

    // Fused GS prologue.
    BsrDsdDesc fused = plain;
    fused.fuseGlobalScale = true;
    Tensor<Half> o_fused(Shape({kL, kDh}));
    bsrDsdRun(execCtx(), fused, x_prime, in.v, o_fused, &recon);

    EXPECT_LT(maxAbsDiff(toFloat(o_fused), toFloat(o_ref)), 5e-3);
}

// ---------- profiles ----------

TEST(BsrProfiles, BaselineSoftmaxHasWorstCaseAllocation)
{
    const GpuSpec spec = GpuSpec::a100();
    const BsrLayout layout = bigBirdPattern(4096, BigBirdParams{});
    BsrSoftmaxDesc desc;
    desc.batch = 16;
    desc.layout = &layout;
    const KernelProfile prof = bsrRowSoftmaxProfile(spec, desc);
    // Worst-case staging for a full row despite sparse rows.
    EXPECT_EQ(prof.geom.block.smemBytes, uint64_t(4096 * 4));
    EXPECT_EQ(prof.geom.numBlocks, 16 * 4096);
    // Lane utilization equals the density.
    EXPECT_NEAR(prof.laneUtilization, layout.density(), 1e-12);
    // Traffic covers only the stored values.
    EXPECT_EQ(prof.dramReadBytes,
              uint64_t(16) * uint64_t(layout.nnzElements()) * 2);
    EXPECT_GT(prof.workImbalance, 1.0);
}

TEST(BsrProfiles, DecomposedKernelsAllocatePerBlock)
{
    const GpuSpec spec = GpuSpec::a100();
    const BsrLayout layout = bigBirdPattern(4096, BigBirdParams{});
    BsrSoftmaxDesc desc;
    desc.batch = 4;
    desc.layout = &layout;
    const KernelProfile ls = bsrLsProfile(spec, desc);
    EXPECT_EQ(ls.geom.numBlocks, 4 * layout.nnzBlocks());
    EXPECT_EQ(ls.geom.block.smemBytes, uint64_t(64 * 64 * 2));
    EXPECT_DOUBLE_EQ(ls.laneUtilization, 1.0);
    const KernelProfile gs = bsrGsProfile(spec, desc);
    EXPECT_EQ(gs.geom.numBlocks, 4 * layout.nnzBlocks());
    const KernelProfile ir = bsrIrProfile(spec, desc);
    EXPECT_LT(ir.dramBytes(), ls.dramBytes() / 8);
}

TEST(BsrProfiles, SddUniformDsdImbalanced)
{
    const GpuSpec spec = GpuSpec::a100();
    const BsrLayout layout =
        longformerPattern(4096, LongformerParams{});
    BsrSddDesc sdd;
    sdd.batch = 16;
    sdd.layout = &layout;
    sdd.dHead = 64;
    EXPECT_DOUBLE_EQ(bsrSddProfile(spec, sdd).workImbalance, 1.0);

    BsrDsdDesc dsd;
    dsd.batch = 16;
    dsd.layout = &layout;
    dsd.dHead = 64;
    const KernelProfile prof = bsrDsdProfile(spec, dsd);
    EXPECT_GT(prof.workImbalance, 2.0); // dense global rows straggle
    EXPECT_EQ(prof.geom.numBlocks, 16 * layout.blockRows());
}

TEST(BsrProfiles, FlopsProportionalToNnz)
{
    const GpuSpec spec = GpuSpec::a100();
    const BsrLayout layout = bigBirdPattern(2048, BigBirdParams{});
    BsrSddDesc sdd;
    sdd.batch = 1;
    sdd.layout = &layout;
    sdd.dHead = 64;
    EXPECT_DOUBLE_EQ(bsrSddProfile(spec, sdd).tensorFlops,
                     2.0 * double(layout.nnzElements()) * 64.0);
}

} // namespace
} // namespace softrec

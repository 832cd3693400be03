/**
 * @file
 * Proof that the checked-build layer actually fires.
 *
 * This target is compiled with SOFTREC_CHECKED_BUILD forced on (see
 * tests/CMakeLists.txt), independent of the configure-time option, so
 * every build configuration verifies that out-of-bounds accesses, NaN
 * poison, and recomposition-invariant violations trip SOFTREC_CHECK
 * rather than silently corrupting results. The header-level checks
 * (Tensor/BsrMatrix accessors, the checkXxx helpers) instantiate in
 * this translation unit with checks active; library-internal call
 * sites are exercised by running the full suite under the `checked`
 * and `asan-ubsan` presets (scripts/ci.sh).
 */

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/exec_context.hpp"
#include "kernels/softmax_kernels.hpp"
#include "kernels/softmax_row.hpp"
#include "sparse/bsr.hpp"
#include "sparse/bsr_matrix.hpp"
#include "tensor/tensor.hpp"

namespace softrec {
namespace {

/** Shared context: honors SOFTREC_THREADS so suites can run threaded. */
ExecContext
execCtx()
{
    return ExecContext::fromEnv();
}

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

TEST(CheckedBuild, MacroIsActiveInThisTranslationUnit)
{
    ASSERT_TRUE(kCheckedBuild)
        << "test_checked_build must compile with SOFTREC_CHECKED_BUILD";
    EXPECT_THROW(SOFTREC_CHECK(1 == 2, "forced failure %d", 42),
                 std::logic_error);
    SOFTREC_CHECK(1 == 1, "must not fire");
}

TEST(CheckedBuild, TensorBoundsFire)
{
    Tensor<float> t(Shape({2, 3}));
    EXPECT_THROW(t.at(6), std::logic_error);
    EXPECT_THROW(t.at(-1), std::logic_error);
    EXPECT_THROW(t.at(2, 0), std::logic_error);
    EXPECT_THROW(t.at(0, 3), std::logic_error);
    EXPECT_THROW(t.at(0, 0, 0), std::logic_error); // wrong rank
    // In-range access stays untouched.
    t.at(1, 2) = 7.0f;
    EXPECT_EQ(t.at(5), 7.0f);
}

TEST(CheckedBuild, BsrMatrixBoundsFire)
{
    // 2x2 block grid, diagonal blocks of edge 4 stored.
    const BsrLayout layout =
        BsrLayout::fromMask(4, 2, 2, {true, false, false, true});
    BsrMatrix m(layout);
    EXPECT_THROW(m.at(2, 0, 0), std::logic_error);
    EXPECT_THROW(m.at(0, 4, 0), std::logic_error);
    EXPECT_THROW(m.at(0, 0, -1), std::logic_error);
    EXPECT_THROW(m.blockData(2), std::logic_error);
    m.at(1, 3, 3) = Half(2.0f);
    EXPECT_EQ(float(m.at(1, 3, 3)), 2.0f);
}

TEST(CheckedBuild, NanPoisonFires)
{
    Tensor<float> t(Shape({2, 2}), 1.0f);
    checkFinite(t, "clean tensor"); // must not fire
    t.at(1, 1) = kNan;
    EXPECT_THROW(checkFinite(t, "poisoned tensor"), std::logic_error);
}

TEST(CheckedBuild, PositiveInfinityFires)
{
    Tensor<float> t(Shape({4}), 0.0f);
    t.at(2) = kInf;
    EXPECT_THROW(checkFinite(t, "inf tensor"), std::logic_error);
}

TEST(CheckedBuild, NegativeInfinityIsLegalMaskPadding)
{
    Tensor<float> logits(Shape({4}), 0.0f);
    logits.at(3) = -kInf;
    checkFinite(logits, "masked logits", /*allow_neg_inf=*/true);
    EXPECT_THROW(checkFinite(logits, "masked logits rejected"),
                 std::logic_error);
}

TEST(CheckedBuild, RowSumInvariantFires)
{
    Tensor<Half> y(Shape({2, 4}));
    for (int64_t j = 0; j < 4; ++j)
        y.at(0, j) = Half(0.25f); // proper probability row
    // Row 1 stays all-zero: legal (fully masked).
    checkRowSumsNearOne(y, "good rows");

    y.at(1, 0) = Half(0.5f); // row 1 now sums to 0.5
    EXPECT_THROW(checkRowSumsNearOne(y, "bad row"), std::logic_error);
}

TEST(CheckedBuild, ReconFactorInvariantFires)
{
    Tensor<float> r(Shape({2, 2}), 0.5f);
    r.at(0, 1) = 0.0f; // masked sub-vector: legal
    checkReconFactors(r, "good factors");

    r.at(1, 0) = 1.5f; // above 1: corrupted IR
    EXPECT_THROW(checkReconFactors(r, "bad factor"), std::logic_error);
    r.at(1, 0) = -0.1f;
    EXPECT_THROW(checkReconFactors(r, "negative factor"),
                 std::logic_error);
    r.at(1, 0) = kNan;
    EXPECT_THROW(checkReconFactors(r, "NaN factor"), std::logic_error);
}

TEST(CheckedBuild, SpanViewAdapterWorks)
{
    std::vector<float> v{0.25f, 0.75f};
    checkFinite(spanOf(v), "clean span");
    v[1] = kNan;
    EXPECT_THROW(checkFinite(spanOf(v), "poisoned span"),
                 std::logic_error);
}

TEST(CheckedBuild, AllNanSegmentIsNotAMaskedSegment)
{
    // std::max(-inf, NaN) keeps -inf, so without the NaN check an
    // all-NaN segment would pass as fully masked (m' = -inf, d' = 0).
    std::vector<float> masked(8, -kInf);
    float m = -kInf, d = 0.0f, rescale = 1.0f;
    EXPECT_FALSE(onlineFold(masked.data(), 8, m, d, rescale));
    const SoftmaxStats st = localSoftmax(masked.data(), 8);
    EXPECT_EQ(st.m, -kInf);
    EXPECT_EQ(st.d, 0.0f);

    std::vector<float> poisoned(8, kNan);
    EXPECT_THROW(localSoftmax(poisoned.data(), 8), std::logic_error);
    EXPECT_THROW(onlineFold(poisoned.data(), 8, m, d, rescale),
                 std::logic_error);
}

TEST(CheckedBuild, CausalSoftmaxRejectsUnmaskedScores)
{
    // A causal rowSoftmaxRun skips every entry past the diagonal; it
    // checks first that those entries really are -inf.
    Tensor<Half> scores(Shape({4, 6}));
    for (int64_t i = 0; i < 4; ++i)
        for (int64_t j = 0; j < 6; ++j)
            scores.at(i, j) = Half(j > i ? -kInf : 0.5f * float(j));
    checkCausallyMasked(scores, "masked scores");
    scores.at(1, 5) = Half(0.25f);
    EXPECT_THROW(checkCausallyMasked(scores, "unmasked scores"),
                 std::logic_error);
    scores.at(1, 5) = Half(-kInf);
    scores.at(2, 3) = Half(kNan);
    EXPECT_THROW(checkCausallyMasked(scores, "NaN past the diagonal"),
                 std::logic_error);
}

TEST(CheckedBuild, RecompositionPipelineRunsCleanUnderChecks)
{
    // The LS -> IR -> GS pipeline on a masked input must pass every
    // invariant (d > 0 on unmasked rows, r' in (0, 1], row sums ~1).
    SoftmaxShape desc;
    desc.name = "checked.pipeline";
    desc.batch = 1;
    desc.rows = 8;
    desc.cols = 32;
    desc.subVector = 8;

    Tensor<Half> in(Shape({desc.rows, desc.cols}));
    for (int64_t i = 0; i < desc.rows; ++i) {
        for (int64_t j = 0; j < desc.cols; ++j) {
            const bool masked = (i + j) % 7 == 0;
            in.at(i, j) = Half(masked ? -kInf
                                      : 0.1f * float(j - i));
        }
    }
    Tensor<Half> x_prime(in.shape());
    Tensor<float> local_max(Shape({desc.rows, desc.numSubVectors()}));
    Tensor<float> local_sum(Shape({desc.rows, desc.numSubVectors()}));
    Tensor<float> recon(Shape({desc.rows, desc.numSubVectors()}));
    Tensor<Half> y(in.shape());

    lsRun(execCtx(), desc, in, x_prime, local_max, local_sum);
    irRun(execCtx(), desc, local_max, local_sum, recon);
    gsRun(execCtx(), desc, x_prime, recon, y);

    checkReconFactors(recon, "pipeline r'");
    checkRowSumsNearOne(y, "pipeline output");
}

} // namespace
} // namespace softrec

/**
 * @file
 * Tests of the dense softmax kernels: the baseline row softmax and the
 * decomposed LS/IR/GS pipeline, functionally and at the profile level,
 * and the vectorized max pass shared by every softmax step.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/exec_context.hpp"
#include "common/rng.hpp"
#include "core/softmax_math.hpp"
#include "kernels/softmax_kernels.hpp"
#include "kernels/softmax_row.hpp"
#include "sim/calibration.hpp"
#include "sim/cost_model.hpp"
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

/** Row softmax of the fp16 matrix in double precision. */
Tensor<float>
referenceSoftmax(const Tensor<Half> &in)
{
    const int64_t rows = in.shape().dim(0);
    const int64_t cols = in.shape().dim(1);
    Tensor<float> out(in.shape());
    for (int64_t i = 0; i < rows; ++i) {
        std::vector<double> row(static_cast<size_t>(cols), 0.0);
        for (int64_t j = 0; j < cols; ++j)
            row[size_t(j)] = double(float(in.at(i, j)));
        const auto y = safeSoftmax(row);
        for (int64_t j = 0; j < cols; ++j)
            out.at(i, j) = float(y[size_t(j)]);
    }
    return out;
}

TEST(RowSoftmax, MatchesReference)
{
    Rng rng(1);
    const Tensor<Half> in = makeAttentionScores(rng, 37, 53);
    Tensor<Half> out(in.shape());
    SoftmaxShape desc;
    desc.rows = 37;
    desc.cols = 53;
    rowSoftmaxRun(execCtx(), desc, in, out);
    EXPECT_LT(maxAbsDiff(toFloat(out), referenceSoftmax(in)), 1e-3);
}

TEST(RowSoftmax, RowsSumToOne)
{
    Rng rng(2);
    const Tensor<Half> in = makeAttentionScores(rng, 16, 128);
    Tensor<Half> out(in.shape());
    SoftmaxShape desc;
    desc.rows = 16;
    desc.cols = 128;
    rowSoftmaxRun(execCtx(), desc, in, out);
    for (int64_t i = 0; i < 16; ++i) {
        float sum = 0.0f;
        for (int64_t j = 0; j < 128; ++j)
            sum += float(out.at(i, j));
        EXPECT_NEAR(sum, 1.0f, 0.02f); // fp16 storage rounding
    }
}

TEST(RowSoftmax, FullyMaskedRowIsZero)
{
    Tensor<Half> in(Shape({2, 4}));
    for (int64_t j = 0; j < 4; ++j) {
        in.at(0, j) = Half::fromBits(0xfc00); // -inf
        in.at(1, j) = Half(float(j));
    }
    Tensor<Half> out(in.shape());
    SoftmaxShape desc;
    desc.rows = 2;
    desc.cols = 4;
    rowSoftmaxRun(execCtx(), desc, in, out);
    for (int64_t j = 0; j < 4; ++j)
        EXPECT_TRUE(out.at(0, j).isZero());
    EXPECT_GT(float(out.at(1, 3)), float(out.at(1, 0)));
}

TEST(RowSoftmax, CausalRejectsUnmaskedScoresInCheckedBuild)
{
    // A causal row skips its tail; on unmasked scores that would drop
    // real scores instead of -inf ones.
    if (!kCheckedBuild)
        GTEST_SKIP() << "mask checks are compiled into checked builds";
    Rng rng(3);
    const Tensor<Half> in = makeAttentionScores(rng, 8, 8);
    Tensor<Half> out(in.shape());
    SoftmaxShape desc;
    desc.rows = 8;
    desc.cols = 8;
    desc.causal = true;
    EXPECT_THROW(rowSoftmaxRun(execCtx(), desc, in, out),
                 std::logic_error);

    // Three query rows over eight keys: row i keeps j <= i + 5, so a
    // real score at (0, 6) is past the shifted diagonal.
    Tensor<Half> shifted(Shape({3, 8}));
    for (int64_t i = 0; i < 3; ++i)
        for (int64_t j = 0; j < 8; ++j)
            shifted.at(i, j) = j > i + 5 ? Half::fromBits(0xfc00)
                                         : Half(0.25f * float(j));
    Tensor<Half> shifted_out(shifted.shape());
    SoftmaxShape shifted_desc;
    shifted_desc.rows = 3;
    shifted_desc.cols = 8;
    shifted_desc.causal = true;
    rowSoftmaxRun(execCtx(), shifted_desc, shifted, shifted_out);
    shifted.at(0, 6) = Half(0.5f);
    EXPECT_THROW(rowSoftmaxRun(execCtx(), shifted_desc, shifted,
                               shifted_out),
                 std::logic_error);
}

// --- The vectorized max pass against the scalar std::max loop ------

/** Ascending std::max(m, x) from -inf: the order every max must match. */
float
scalarMax(const std::vector<float> &x)
{
    float m = -std::numeric_limits<float>::infinity();
    for (const float v : x)
        m = std::max(m, v);
    return m;
}

/** Raw bits, so -0 and +0 compare unequal. */
uint32_t
bitsOf(float value)
{
    uint32_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

/** segmentMax(x) must equal scalarMax(x) bit for bit. */
::testing::AssertionResult
maxMatchesScalar(const std::vector<float> &x)
{
    const float got = softmax_detail::segmentMax(x.data(), int64_t(x.size()));
    const float want = scalarMax(x);
    if (bitsOf(got) == bitsOf(want))
        return ::testing::AssertionSuccess();
    ::testing::AssertionResult fail = ::testing::AssertionFailure();
    fail << "n=" << x.size() << " got " << got << " (0x" << std::hex
         << bitsOf(got) << ") want " << want << " (0x" << bitsOf(want)
         << ") for {";
    for (const float v : x)
        fail << v << ",";
    return fail << "}";
}

/** n values mixing signs, magnitudes, zeros and -inf. */
std::vector<float>
mixedValues(Rng &rng, int64_t n)
{
    std::vector<float> x(static_cast<size_t>(n));
    for (float &v : x) {
        switch (rng.uniformInt(5)) {
          case 0: v = -std::numeric_limits<float>::infinity(); break;
          case 1: v = rng.uniformInt(2) ? 0.0f : -0.0f; break;
          default: v = float(rng.normal(0.0, 4.0)); break;
        }
    }
    return x;
}

TEST(SegmentMax, MatchesScalarLoopAtEveryShortLength)
{
    Rng rng(31);
    for (int64_t n = 0; n <= 9; ++n)
        for (int trial = 0; trial < 50; ++trial)
            ASSERT_TRUE(maxMatchesScalar(mixedValues(rng, n)));
}

TEST(SegmentMax, MatchesScalarLoopOnRaggedSegments)
{
    Rng rng(32);
    for (int trial = 0; trial < 400; ++trial) {
        const int64_t n = int64_t(rng.uniformInt(300));
        std::vector<float> x = mixedValues(rng, n);
        if (trial % 2 == 0) // mostly negative: a zero max is likely
            for (float &v : x)
                v = v > 0.0f ? -v : v;
        ASSERT_TRUE(maxMatchesScalar(x));
    }
}

TEST(SegmentMax, SignedZeroMaxKeepsScalarOrder)
{
    // max(-0, +0) keeps whichever zero comes first, so the zero pair
    // is placed inside the first vector block and past it, with every
    // other entry negative so the pair decides the result.
    for (int64_t n = 2; n <= 13; ++n) {
        for (int64_t p = 0; p + 1 < n; ++p) {
            for (const bool neg_first : {true, false}) {
                std::vector<float> x(size_t(n), -1.5f);
                x[size_t(p)] = neg_first ? -0.0f : 0.0f;
                x[size_t(p + 1)] = neg_first ? 0.0f : -0.0f;
                ASSERT_TRUE(maxMatchesScalar(x)) << "pair at " << p;
                // The pair split across lanes and blocks.
                std::vector<float> y(size_t(n), -1.5f);
                y[size_t(p)] = x[size_t(p)];
                y[size_t(n - 1)] = x[size_t(p + 1)];
                ASSERT_TRUE(maxMatchesScalar(y)) << "split at " << p;
            }
        }
    }
}

TEST(SegmentMax, AllNegInfSegmentIsMasked)
{
    for (const int64_t n : {1, 3, 4, 5, 8, 9, 17, 64}) {
        const std::vector<float> x(
            size_t(n), -std::numeric_limits<float>::infinity());
        ASSERT_TRUE(maxMatchesScalar(x));
        EXPECT_EQ(softmax_detail::segmentMax(x.data(), n), kNegInf);
    }
}

TEST(SegmentMax, NanIsSkippedAsStdMaxSkipsItInRelease)
{
    // std::max(m, NaN) keeps m: release builds ignore NaN wherever it
    // sits (checked builds reject it instead).
    if (kCheckedBuild)
        GTEST_SKIP() << "checked builds reject NaN scores";
    const float nan = std::numeric_limits<float>::quiet_NaN();
    Rng rng(33);
    for (int64_t n = 1; n <= 13; ++n) {
        for (int64_t p = 0; p < n; ++p) {
            std::vector<float> x = mixedValues(rng, n);
            x[size_t(p)] = nan;
            ASSERT_TRUE(maxMatchesScalar(x)) << "NaN at " << p;
        }
        ASSERT_TRUE(maxMatchesScalar(std::vector<float>(size_t(n), nan)));
    }
}

/** LS -> IR -> GS on fp16 storage vs the baseline kernel. */
class DecomposedPipeline
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t>>
{};

TEST_P(DecomposedPipeline, ComposesToRowSoftmax)
{
    const auto [cols, t] = GetParam();
    const int64_t rows = 24;
    Rng rng(uint64_t(cols * 131 + t));
    const Tensor<Half> in = makeAttentionScores(rng, rows, cols);

    SoftmaxShape base_desc;
    base_desc.rows = rows;
    base_desc.cols = cols;
    Tensor<Half> baseline(in.shape());
    rowSoftmaxRun(execCtx(), base_desc, in, baseline);

    SoftmaxShape sub;
    sub.rows = rows;
    sub.cols = cols;
    sub.subVector = t;
    const Shape md({rows, sub.numSubVectors()});
    Tensor<Half> x_prime(in.shape());
    Tensor<float> local_max(md), local_sum(md), recon(md);
    lsRun(execCtx(), sub, in, x_prime, local_max, local_sum);
    irRun(execCtx(), sub, local_max, local_sum, recon);
    Tensor<Half> recomposed(in.shape());
    gsRun(execCtx(), sub, x_prime, recon, recomposed);

    // Both routes round through fp16 once more than the reference;
    // they must agree to fp16 precision on values in [0, 1].
    EXPECT_LT(maxAbsDiff(toFloat(recomposed), toFloat(baseline)), 2e-3)
        << "cols=" << cols << " t=" << t;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DecomposedPipeline,
    ::testing::Combine(::testing::Values(32, 64, 100, 256),
                       ::testing::Values(8, 16, 32, 64)));

TEST(DecomposedPipelineEdge, MaskedSubVector)
{
    const int64_t rows = 4, cols = 32, t = 8;
    Rng rng(9);
    Tensor<Half> in = makeAttentionScores(rng, rows, cols);
    // Mask the second sub-vector of row 1 entirely.
    for (int64_t j = 8; j < 16; ++j)
        in.at(1, j) = Half::fromBits(0xfc00);

    SoftmaxShape sub;
    sub.rows = rows;
    sub.cols = cols;
    sub.subVector = t;
    const Shape md({rows, 4});
    Tensor<Half> x_prime(in.shape());
    Tensor<float> lmax(md), lsum(md), recon(md);
    lsRun(execCtx(), sub, in, x_prime, lmax, lsum);
    EXPECT_EQ(lsum.at(1, 1), 0.0f);
    irRun(execCtx(), sub, lmax, lsum, recon);
    EXPECT_EQ(recon.at(1, 1), 0.0f);
    Tensor<Half> out(in.shape());
    gsRun(execCtx(), sub, x_prime, recon, out);

    SoftmaxShape base_desc;
    base_desc.rows = rows;
    base_desc.cols = cols;
    Tensor<Half> baseline(in.shape());
    rowSoftmaxRun(execCtx(), base_desc, in, baseline);
    EXPECT_LT(maxAbsDiff(toFloat(out), toFloat(baseline)), 2e-3);
}

TEST(DecomposedDesc, SubVectorCount)
{
    SoftmaxShape sub;
    sub.rows = 4;
    sub.cols = 100;
    sub.subVector = 32;
    EXPECT_EQ(sub.numSubVectors(), 4); // ceil(100/32)
}

// ---------- profiles ----------

TEST(RowSoftmaxProfile, OneBlockPerRowWithRowStaging)
{
    const GpuSpec spec = GpuSpec::a100();
    SoftmaxShape desc;
    desc.batch = 16;
    desc.rows = 4096;
    desc.cols = 4096;
    const KernelProfile prof = rowSoftmaxProfile(spec, desc);
    EXPECT_EQ(prof.geom.numBlocks, 16 * 4096);
    EXPECT_EQ(prof.geom.block.smemBytes,
              uint64_t(4096 * calib::kRowSoftmaxStagingBytesPerElem));
    const uint64_t matrix = uint64_t(16) * 4096 * 4096 * 2;
    EXPECT_EQ(prof.dramReadBytes, matrix);
    EXPECT_EQ(prof.dramWriteBytes, matrix);
    EXPECT_DOUBLE_EQ(prof.serializationFactor,
                     rowSoftmaxSerialization(4096));
    EXPECT_EQ(prof.category, KernelCategory::Softmax);
}

TEST(LsProfile, TiledGridAndIntermediateWrites)
{
    const GpuSpec spec = GpuSpec::a100();
    SoftmaxShape desc;
    desc.batch = 2;
    desc.rows = 512;
    desc.cols = 512;
    desc.subVector = 64;
    const KernelProfile prof = lsProfile(spec, desc);
    EXPECT_EQ(prof.geom.numBlocks, 2 * 8 * 8);
    const uint64_t matrix = uint64_t(2) * 512 * 512 * 2;
    EXPECT_EQ(prof.dramReadBytes, matrix);
    EXPECT_EQ(prof.dramWriteBytes,
              matrix + uint64_t(2) * 512 * 8 * 2 * 4);
    EXPECT_DOUBLE_EQ(prof.serializationFactor, 1.0);
    EXPECT_EQ(prof.category, KernelCategory::SoftmaxLs);
}

TEST(IrProfile, TinyTraffic)
{
    const GpuSpec spec = GpuSpec::a100();
    SoftmaxShape desc;
    desc.batch = 2;
    desc.rows = 512;
    desc.cols = 512;
    desc.subVector = 64;
    const KernelProfile prof = irProfile(spec, desc);
    const uint64_t md_count = 2 * 512 * 8;
    EXPECT_EQ(prof.dramReadBytes, md_count * 8);
    EXPECT_EQ(prof.dramWriteBytes, md_count * 4);
    EXPECT_EQ(prof.category, KernelCategory::SoftmaxIr);
    // IR traffic is ~1/T of one matrix sweep: negligible by design.
    EXPECT_LT(prof.dramBytes(), uint64_t(2) * 512 * 512 * 2 / 8);
}

TEST(GsProfile, StreamingElementwise)
{
    const GpuSpec spec = GpuSpec::a100();
    SoftmaxShape desc;
    desc.batch = 1;
    desc.rows = 1024;
    desc.cols = 1024;
    desc.subVector = 64;
    const KernelProfile prof = gsProfile(spec, desc);
    const uint64_t matrix = uint64_t(1024) * 1024 * 2;
    EXPECT_EQ(prof.dramWriteBytes, matrix);
    EXPECT_EQ(prof.dramReadBytes, matrix + 1024 * 16 * 4);
    EXPECT_EQ(prof.category, KernelCategory::SoftmaxGs);
    EXPECT_DOUBLE_EQ(prof.laneUtilization, 1.0);
}

TEST(SoftmaxProfiles, DecomposedMovesTwiceTheMatrixTraffic)
{
    // The SD configuration's defining cost (paper Section 5.1): LS+GS
    // together sweep the attention matrix twice as often as the
    // baseline kernel.
    const GpuSpec spec = GpuSpec::a100();
    SoftmaxShape base;
    base.batch = 16;
    base.rows = base.cols = 4096;
    SoftmaxShape sub;
    sub.batch = 16;
    sub.rows = sub.cols = 4096;
    sub.subVector = 64;
    const uint64_t base_bytes = rowSoftmaxProfile(spec, base).dramBytes();
    const uint64_t sd_bytes = lsProfile(spec, sub).dramBytes() +
                              irProfile(spec, sub).dramBytes() +
                              gsProfile(spec, sub).dramBytes();
    EXPECT_GT(sd_bytes, base_bytes * 2.0);
    EXPECT_LT(sd_bytes, base_bytes * 2.1);
}

} // namespace
} // namespace softrec

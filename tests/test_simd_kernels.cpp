/**
 * @file
 * Tests of the vectorized kernel substrate: the batch fp16<->fp32
 * conversions must be bit-for-bit identical between the scalar and
 * SIMD backends (including NaN payloads, infinities, subnormals, and
 * rounding boundaries), the packed-panel GEMM must match the naive
 * reference at ragged shapes under both backends and a scalar triple
 * loop of the same arithmetic bit for bit, the causal fast paths must
 * match the full-work paths bit for bit, and kernels built on the
 * substrate must stay deterministic across thread counts.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/exec_context.hpp"
#include "common/rng.hpp"
#include "fp16/half.hpp"
#include "kernels/gemm.hpp"
#include "kernels/softmax_kernels.hpp"
#include "tensor/tensor_ops.hpp"

namespace softrec {
namespace {

/** Runs `body` under `backend`, restoring the previous backend. */
template <typename Fn>
void
withBackend(SimdBackend backend, Fn &&body)
{
    const SimdBackend prev = setSimdBackend(backend);
    body();
    setSimdBackend(prev);
}

/**
 * Adversarial fp32 inputs for floatToHalf: every special-case branch
 * of Half::fromFloat plus the RNE rounding boundaries.
 */
std::vector<float>
edgeFloats()
{
    const auto bits = [](uint32_t u) {
        float f;
        static_assert(sizeof(f) == sizeof(u));
        __builtin_memcpy(&f, &u, sizeof(f));
        return f;
    };
    return {
        0.0f, -0.0f, 1.0f, -1.0f,
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        std::numeric_limits<float>::quiet_NaN(),
        -std::numeric_limits<float>::quiet_NaN(),
        bits(0x7f800001u), // signalling NaN, minimal payload
        bits(0xffc12345u), // quiet NaN with payload bits
        65504.0f,          // max finite half
        65519.0f,          // rounds down to 65504
        65520.0f,          // rounds up: overflow to +inf
        -65520.0f,
        6.103515625e-05f,  // min normal half (2^-14)
        5.960464477539063e-08f, // min subnormal half (2^-24)
        2.9802322387695312e-08f, // 2^-25: underflow boundary
        bits(0x33000001u), // just above 2^-25: smallest non-zero
        1.0009765625f,     // 1 + 2^-10: exactly representable
        1.00048828125f,    // 1 + 2^-11: RNE tie, rounds to even
        1.0014648437f,     // between steps: rounds to nearest
        3.14159265f, -2.71828182f, 1e-3f, -1e6f,
    };
}

TEST(BatchConvert, HalfToFloatAllBitPatternsMatchScalar)
{
    // Every binary16 bit pattern through both backends, including all
    // NaN payloads (the SIMD path must redo NaN chunks scalar).
    const int64_t n = 0x10000;
    std::vector<Half> src(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i)
        src[size_t(i)] = Half::fromBits(uint16_t(i));
    std::vector<float> want(static_cast<size_t>(n)), got(static_cast<size_t>(n));
    halfToFloatScalar(src.data(), want.data(), n);
    withBackend(detectedSimdBackend(), [&] {
        halfToFloat(src.data(), got.data(), n);
    });
    for (int64_t i = 0; i < n; ++i) {
        uint32_t wb, gb;
        __builtin_memcpy(&wb, &want[size_t(i)], 4);
        __builtin_memcpy(&gb, &got[size_t(i)], 4);
        ASSERT_EQ(wb, gb) << "half bits=" << i;
    }
}

TEST(BatchConvert, FloatToHalfEdgeCasesMatchScalar)
{
    // Edge values in every lane position so each special case lands
    // in both aligned chunks and the scalar tail.
    const std::vector<float> edges = edgeFloats();
    std::vector<float> src;
    for (size_t rot = 0; rot < 8; ++rot)
        for (size_t i = 0; i < edges.size(); ++i)
            src.push_back(edges[(i + rot) % edges.size()]);
    const int64_t n = int64_t(src.size());
    std::vector<Half> want(static_cast<size_t>(n)), got(static_cast<size_t>(n));
    floatToHalfScalar(src.data(), want.data(), n);
    withBackend(detectedSimdBackend(), [&] {
        floatToHalf(src.data(), got.data(), n);
    });
    for (int64_t i = 0; i < n; ++i)
        ASSERT_EQ(want[size_t(i)].bits(), got[size_t(i)].bits())
            << "src=" << src[size_t(i)] << " i=" << i;
}

TEST(BatchConvert, RandomRoundTripMatchesScalarAtOddLengths)
{
    // Lengths 0..33 cover the vector body, the partial tail, and the
    // all-tail cases on both 8-wide (x86) and 4-wide (NEON) paths.
    Rng rng(11);
    for (int64_t n = 0; n <= 33; ++n) {
        std::vector<float> src(static_cast<size_t>(n));
        for (float &v : src)
            v = float(rng.normal(0.0, 100.0));
        std::vector<Half> hw(size_t(n) + 1), hg(size_t(n) + 1);
        std::vector<float> fw(size_t(n) + 1), fg(size_t(n) + 1);
        floatToHalfScalar(src.data(), hw.data(), n);
        halfToFloatScalar(hw.data(), fw.data(), n);
        withBackend(detectedSimdBackend(), [&] {
            floatToHalf(src.data(), hg.data(), n);
            halfToFloat(hg.data(), fg.data(), n);
        });
        for (int64_t i = 0; i < n; ++i) {
            ASSERT_EQ(hw[size_t(i)].bits(), hg[size_t(i)].bits())
                << "n=" << n << " i=" << i;
            ASSERT_EQ(fw[size_t(i)], fg[size_t(i)])
                << "n=" << n << " i=" << i;
        }
    }
}

TEST(SimdBackendApi, SetAndRestore)
{
    // The initial backend depends on SOFTREC_SIMD (off forces Scalar,
    // auto/unset detects), so only assert it is one of the two.
    const SimdBackend detected = detectedSimdBackend();
    const SimdBackend initial = simdBackend();
    EXPECT_TRUE(initial == detected || initial == SimdBackend::Scalar);
    EXPECT_EQ(setSimdBackend(SimdBackend::Scalar), initial);
    EXPECT_EQ(simdBackend(), SimdBackend::Scalar);
    EXPECT_EQ(setSimdBackend(detected), SimdBackend::Scalar);
    EXPECT_EQ(simdBackend(), detected);
    setSimdBackend(initial);
    EXPECT_EQ(simdBackend(), initial);
    EXPECT_STRNE(simdBackendName(detected), "");
}

// --- Packed-panel GEMM against the naive reference -----------------

/** Naive fp32 reference: C = op(A, B) with the same epilogue. */
Tensor<float>
referenceGemm(const GemmDesc &desc, const GemmOperands &ops)
{
    Tensor<float> out(Shape({desc.m, desc.n}));
    for (int64_t i = 0; i < desc.m; ++i) {
        for (int64_t j = 0; j < desc.n; ++j) {
            float acc = 0.0f;
            for (int64_t kk = 0; kk < desc.k; ++kk) {
                float a = float(ops.a->at(i, kk));
                if (desc.prologue.globalScale) {
                    a *= ops.gsFactors->at(
                        i, kk / desc.prologue.gsSubVector);
                }
                const float b = ops.transposeB
                    ? float(ops.b->at(j, kk))
                    : float(ops.b->at(kk, j));
                acc += a * b;
            }
            if (desc.epilogue.scale != 1.0)
                acc *= float(desc.epilogue.scale);
            if (desc.epilogue.bias)
                acc += ops.bias->at(j);
            out.at(i, j) = acc;
        }
    }
    return out;
}

TEST(PackedGemm, RaggedShapesMatchReferenceUnderBothBackends)
{
    // Shapes chosen so m, n, and k are all ragged against the tiles:
    // partial panels, partial strips, and partial K steps.
    const struct { int64_t m, n, k; bool transpose_b; } cases[] = {
        {1, 1, 1, false},   {7, 5, 3, false},  {33, 17, 21, false},
        {16, 8, 4, false},  {19, 23, 9, true}, {33, 17, 21, true},
    };
    int seed = 100;
    for (const auto &tc : cases) {
        for (const SimdBackend backend :
             {SimdBackend::Scalar, detectedSimdBackend()}) {
            Rng rng(uint64_t(seed++));
            GemmDesc desc;
            desc.m = tc.m;
            desc.n = tc.n;
            desc.k = tc.k;
            desc.tiling.tileM = 16;
            desc.tiling.tileN = 8;
            desc.tiling.tileK = 4;
            Tensor<Half> a(Shape({tc.m, tc.k}));
            Tensor<Half> b(tc.transpose_b ? Shape({tc.n, tc.k})
                                          : Shape({tc.k, tc.n}));
            fillNormal(a, rng, 0.0, 0.5);
            fillNormal(b, rng, 0.0, 0.5);
            GemmOperands ops;
            ops.a = &a;
            ops.b = &b;
            ops.transposeB = tc.transpose_b;
            Tensor<Half> c(Shape({tc.m, tc.n}));
            withBackend(backend, [&] {
                gemmRun(ExecContext(), desc, ops, c);
            });
            EXPECT_LT(maxAbsDiff(toFloat(c), referenceGemm(desc, ops)),
                      0.02)
                << "m=" << tc.m << " n=" << tc.n << " k=" << tc.k
                << " transposed=" << tc.transpose_b
                << " backend=" << simdBackendName(backend);
        }
    }
}

TEST(PackedGemm, FusedLsEpilogueMatchesUnfused)
{
    // The LS epilogue reuses the packed panels and converted rows;
    // its m'/d' must match running LS over the unfused scores.
    Rng rng(42);
    GemmDesc plain;
    plain.m = 29;
    plain.n = 24;
    plain.k = 16;
    plain.tiling.tileM = 16;
    plain.tiling.tileN = 8;
    plain.tiling.tileK = 4;
    plain.epilogue.scale = 0.25;
    Tensor<Half> a(Shape({plain.m, plain.k}));
    Tensor<Half> b(Shape({plain.n, plain.k}));
    fillNormal(a, rng, 0.0, 0.5);
    fillNormal(b, rng, 0.0, 0.5);
    GemmOperands ops;
    ops.a = &a;
    ops.b = &b;
    ops.transposeB = true;

    GemmDesc fused = plain;
    fused.epilogue.localSoftmax = true;
    const int64_t nsv = (plain.n + plain.tiling.tileN - 1) /
                        plain.tiling.tileN;
    Tensor<Half> scores(Shape({plain.m, plain.n}));
    Tensor<Half> x_prime(Shape({plain.m, plain.n}));
    Tensor<float> local_max(Shape({plain.m, nsv}));
    Tensor<float> local_sum(Shape({plain.m, nsv}));
    LsOutputs ls;
    ls.localMax = &local_max;
    ls.localSum = &local_sum;
    gemmRun(ExecContext(), plain, ops, scores);
    gemmRun(ExecContext(), fused, ops, x_prime, &ls);

    SoftmaxShape sm;
    sm.rows = plain.m;
    sm.cols = plain.n;
    sm.subVector = plain.tiling.tileN;
    Tensor<Half> want_x(Shape({plain.m, plain.n}));
    Tensor<float> want_max(Shape({plain.m, nsv}));
    Tensor<float> want_sum(Shape({plain.m, nsv}));
    lsRun(ExecContext(), sm, scores, want_x, want_max, want_sum);
    EXPECT_LT(maxAbsDiff(toFloat(x_prime), toFloat(want_x)), 0.02);
    EXPECT_LT(maxAbsDiff(local_max, want_max), 0.02);
    EXPECT_LT(maxAbsDiff(local_sum, want_sum), 0.02);
}

// --- Bit-exact micro-kernel against a scalar triple loop ----------

/** Epilogue/prologue combination run through gemmRun. */
struct GemmVariant
{
    const char *name;
    double scale = 1.0;
    bool causalMask = false;
    bool bias = false;
    bool gelu = false;
    bool localSoftmax = false;
    bool globalScale = false;
};

/** fp16 bits of C plus the fp32 m'/d' of a fused LS epilogue. */
struct GemmBits
{
    std::vector<uint16_t> c;
    std::vector<float> localMax, localSum;
};

/**
 * Scalar triple loop with gemmRun's exact arithmetic: per element,
 * +0 plus a * b in ascending k (one multiply, one add), then scale,
 * mask, bias, GeLU, and the LS epilogue per tileN-wide sub-vector.
 */
GemmBits
scalarGemmBits(const GemmDesc &desc, const GemmOperands &ops)
{
    const float neg_inf = -std::numeric_limits<float>::infinity();
    const int64_t tile_n = desc.tiling.tileN;
    const int64_t tiles_n = (desc.n + tile_n - 1) / tile_n;
    // Widen (and GS-scale) A once, and lay B out as [n][k]; both are
    // exact, so only the summation below decides the bits.
    std::vector<float> a(size_t(desc.m * desc.k));
    std::vector<float> bt(size_t(desc.n * desc.k));
    for (int64_t i = 0; i < desc.m; ++i) {
        for (int64_t kk = 0; kk < desc.k; ++kk) {
            float v = float(ops.a->at(i, kk));
            if (desc.prologue.globalScale)
                v *= ops.gsFactors->at(i, kk / desc.prologue.gsSubVector);
            a[size_t(i * desc.k + kk)] = v;
        }
    }
    for (int64_t j = 0; j < desc.n; ++j)
        for (int64_t kk = 0; kk < desc.k; ++kk)
            bt[size_t(j * desc.k + kk)] = ops.transposeB
                ? float(ops.b->at(j, kk))
                : float(ops.b->at(kk, j));

    GemmBits out;
    std::vector<float> row(size_t(desc.n));
    for (int64_t i = 0; i < desc.m; ++i) {
        for (int64_t j = 0; j < desc.n; ++j) {
            const float *ar = &a[size_t(i * desc.k)];
            const float *br = &bt[size_t(j * desc.k)];
            float acc = 0.0f;
            for (int64_t kk = 0; kk < desc.k; ++kk)
                acc += ar[kk] * br[kk];
            if (desc.epilogue.scale != 1.0)
                acc *= float(desc.epilogue.scale);
            if (desc.epilogue.causalMask && j > i)
                acc = neg_inf;
            if (desc.epilogue.bias)
                acc += ops.bias->at(j);
            if (desc.epilogue.gelu)
                acc = geluApprox(acc);
            row[size_t(j)] = acc;
        }
        if (desc.epilogue.localSoftmax) {
            for (int64_t tn = 0; tn < tiles_n; ++tn) {
                const int64_t j0 = tn * tile_n;
                const int64_t j1 = std::min(desc.n, j0 + tile_n);
                float local_max = neg_inf;
                for (int64_t j = j0; j < j1; ++j)
                    local_max = std::max(local_max, row[size_t(j)]);
                float local_sum = 0.0f;
                for (int64_t j = j0; j < j1; ++j) {
                    const float e = local_max == neg_inf
                        ? 0.0f
                        : std::exp(row[size_t(j)] - local_max);
                    local_sum += e;
                    row[size_t(j)] = e;
                }
                out.localMax.push_back(local_max);
                out.localSum.push_back(local_sum);
            }
        }
        for (int64_t j = 0; j < desc.n; ++j)
            out.c.push_back(Half(row[size_t(j)]).bits());
    }
    return out;
}

/** Raw bits of a float, so -0, NaN payloads and infinities compare. */
uint32_t
floatBits(float value)
{
    uint32_t bits;
    __builtin_memcpy(&bits, &value, sizeof(bits));
    return bits;
}

/** gemmRun under `backend` must reproduce `want` bit for bit. */
void
expectBitExact(const GemmDesc &desc, const GemmOperands &ops,
               const GemmBits &want, SimdBackend backend)
{
    SCOPED_TRACE(simdBackendName(backend));
    const int64_t tiles_n =
        (desc.n + desc.tiling.tileN - 1) / desc.tiling.tileN;
    Tensor<Half> c(Shape({desc.m, desc.n}));
    Tensor<float> local_max(Shape({desc.m, tiles_n}));
    Tensor<float> local_sum(Shape({desc.m, tiles_n}));
    LsOutputs ls;
    ls.localMax = &local_max;
    ls.localSum = &local_sum;
    withBackend(backend, [&] { gemmRun(ExecContext(), desc, ops, c, &ls); });
    for (int64_t i = 0; i < c.numel(); ++i)
        ASSERT_EQ(c.data()[i].bits(), want.c[size_t(i)]) << "elem " << i;
    if (!desc.epilogue.localSoftmax)
        return;
    for (int64_t i = 0; i < local_max.numel(); ++i) {
        ASSERT_EQ(floatBits(local_max.data()[i]),
                  floatBits(want.localMax[size_t(i)]))
            << "m' " << i;
        ASSERT_EQ(floatBits(local_sum.data()[i]),
                  floatBits(want.localSum[size_t(i)]))
            << "d' " << i;
    }
}

TEST(PackedGemm, BitExactAgainstScalarTripleLoop)
{
    // m covers single rows, partial and whole 4-row register blocks
    // and a ragged 16-row strip; tileN covers one vector, a vector
    // plus a scalar tail, one register block and several; k runs from
    // a single step to a depth far beyond any block. n = 2 * tileN + 5
    // leaves a ragged final tile of 5 columns. A product of two fp16
    // values is exact in fp32, so a fused multiply-add would only
    // change bits where GS scales A by fp32 factors; LS then exposes
    // the fp32 sums through m', which the fp16 store would mostly hide.
    const GemmVariant variants[] = {
        {"plain"},
        {"scale+mask", 0.125, true},
        {"bias+gelu", 1.0, false, true, true},
        {"scale+mask+ls", 0.125, true, false, false, true},
        {"gs+ls", 1.0, false, false, false, true, true},
    };
    constexpr int64_t kGsSub = 5;
    uint64_t seed = 500;
    for (const int64_t m : {1, 3, 4, 5, 17, 64})
    for (const int64_t tile_n : {8, 12, 16, 64})
    for (const int64_t k : {1, 7, 64, 1031})
    for (const bool transpose_b : {false, true})
    for (const GemmVariant &v : variants) {
        SCOPED_TRACE(std::string(v.name) + " m=" + std::to_string(m) +
                     " tileN=" + std::to_string(tile_n) +
                     " k=" + std::to_string(k) +
                     " transposeB=" + std::to_string(transpose_b));
        GemmDesc desc;
        desc.m = m;
        desc.n = 2 * tile_n + 5;
        desc.k = k;
        desc.tiling.tileM = 16;
        desc.tiling.tileN = tile_n;
        desc.epilogue.scale = v.scale;
        desc.epilogue.causalMask = v.causalMask;
        desc.epilogue.bias = v.bias;
        desc.epilogue.gelu = v.gelu;
        desc.epilogue.localSoftmax = v.localSoftmax;
        desc.prologue.globalScale = v.globalScale;
        desc.prologue.gsSubVector = kGsSub;

        Rng rng(seed++);
        Tensor<Half> a(Shape({m, k}));
        Tensor<Half> b(transpose_b ? Shape({desc.n, k})
                                   : Shape({k, desc.n}));
        Tensor<float> bias(Shape({desc.n}));
        Tensor<float> gs(Shape({m, (k + kGsSub - 1) / kGsSub}));
        fillNormal(a, rng, 0.0, 0.5);
        fillNormal(b, rng, 0.0, 0.5);
        fillNormal(bias, rng, 0.0, 0.5);
        fillNormal(gs, rng, 1.0, 0.25);
        GemmOperands ops;
        ops.a = &a;
        ops.b = &b;
        ops.transposeB = transpose_b;
        ops.bias = &bias;
        ops.gsFactors = &gs;

        const GemmBits want = scalarGemmBits(desc, ops);
        for (const SimdBackend backend :
             {SimdBackend::Scalar, detectedSimdBackend()}) {
            expectBitExact(desc, ops, want, backend);
            if (HasFatalFailure())
                return;
        }
    }
}

// --- Determinism across thread counts ------------------------------

/** Run fn under a context of `threads` and return its output. */
template <typename Fn>
Tensor<Half>
runWith(int threads, Fn &&fn)
{
    if (threads == 1)
        return fn(ExecContext());
    ThreadPool pool(threads);
    ExecContext ctx;
    ctx.pool = &pool;
    return fn(ctx);
}

TEST(PackedGemm, BitIdenticalAcrossThreadCounts)
{
    Rng rng(7);
    GemmDesc desc;
    desc.m = 61;
    desc.n = 37;
    desc.k = 29;
    desc.tiling.tileM = 16;
    desc.tiling.tileN = 8;
    desc.tiling.tileK = 4;
    Tensor<Half> a(Shape({desc.m, desc.k}));
    Tensor<Half> b(Shape({desc.k, desc.n}));
    fillNormal(a, rng, 0.0, 0.5);
    fillNormal(b, rng, 0.0, 0.5);
    GemmOperands ops;
    ops.a = &a;
    ops.b = &b;
    const auto run = [&](const ExecContext &ctx) {
        Tensor<Half> c(Shape({desc.m, desc.n}));
        gemmRun(ctx, desc, ops, c);
        return c;
    };
    const Tensor<Half> serial = runWith(1, run);
    for (int threads : {3, 7}) {
        const Tensor<Half> threaded = runWith(threads, run);
        for (int64_t i = 0; i < serial.numel(); ++i)
            ASSERT_EQ(serial.data()[i].bits(),
                      threaded.data()[i].bits())
                << "threads=" << threads << " elem=" << i;
    }
}

// --- Causal fast path: skipped work is invisible in the bits -------

/** Causal prompt lengths, ragged against the 16-wide tiles. */
constexpr int64_t kCausalLengths[] = {1, 15, 16, 17, 37, 100};

/** N(0, 2) scores on and below the diagonal, -inf above it. */
Tensor<Half>
causalScores(int64_t l, Rng &rng)
{
    Tensor<Half> s(Shape({l, l}));
    fillNormal(s, rng, 0.0, 2.0);
    for (int64_t i = 0; i < l; ++i)
        for (int64_t j = i + 1; j < l; ++j)
            s.at(i, j) = Half::fromBits(0xfc00);
    return s;
}

/** Success when a and b hold the same fp16 bits, else the first miss. */
::testing::AssertionResult
sameBits(const Tensor<Half> &got, const Tensor<Half> &want)
{
    if (got.shape() != want.shape())
        return ::testing::AssertionFailure() << "shapes differ";
    for (int64_t i = 0; i < got.numel(); ++i) {
        if (got.data()[i].bits() != want.data()[i].bits()) {
            return ::testing::AssertionFailure()
                   << "elem " << i << ": 0x" << std::hex
                   << got.data()[i].bits() << " != 0x"
                   << want.data()[i].bits();
        }
    }
    return ::testing::AssertionSuccess();
}

TEST(CausalFastPath, RowSoftmaxSkipsMaskedTailBitForBit)
{
    uint64_t seed = 900;
    for (const int64_t l : kCausalLengths) {
        Rng rng(seed++);
        const Tensor<Half> scores = causalScores(l, rng);
        SoftmaxShape full;
        full.rows = l;
        full.cols = l;
        SoftmaxShape causal = full;
        causal.causal = true;
        for (const SimdBackend backend :
             {SimdBackend::Scalar, detectedSimdBackend()}) {
            Tensor<Half> want(scores.shape()), got(scores.shape());
            withBackend(backend, [&] {
                rowSoftmaxRun(ExecContext::fromEnv(), full, scores, want);
                rowSoftmaxRun(ExecContext::fromEnv(), causal, scores, got);
            });
            ASSERT_TRUE(sameBits(got, want))
                << "L=" << l << " backend=" << simdBackendName(backend);
        }
    }
}

TEST(CausalFastPath, MaskedQkTilesMatchTheMaskedFullProduct)
{
    // Tiles wholly above the diagonal are filled, not multiplied; the
    // stored scores must equal the unmasked product's, masked after.
    uint64_t seed = 920;
    for (const int64_t l : kCausalLengths)
    for (const int64_t tile_m : {16, 64}) {
        Rng rng(seed++);
        Tensor<Half> q(Shape({l, 16})), k(Shape({l, 16}));
        fillNormal(q, rng, 0.0, 0.8);
        fillNormal(k, rng, 0.0, 0.8);
        GemmDesc plain;
        plain.m = l;
        plain.n = l;
        plain.k = 16;
        plain.tiling.tileM = tile_m;
        plain.tiling.tileN = 16;
        plain.epilogue.scale = 0.25;
        GemmDesc causal = plain;
        causal.epilogue.causalMask = true;
        GemmOperands ops;
        ops.a = &q;
        ops.b = &k;
        ops.transposeB = true;
        for (const SimdBackend backend :
             {SimdBackend::Scalar, detectedSimdBackend()}) {
            Tensor<Half> want(Shape({l, l})), got(Shape({l, l}));
            withBackend(backend, [&] {
                gemmRun(ExecContext::fromEnv(), plain, ops, want);
                gemmRun(ExecContext::fromEnv(), causal, ops, got);
            });
            for (int64_t i = 0; i < l; ++i)
                for (int64_t j = i + 1; j < l; ++j)
                    want.at(i, j) = Half::fromBits(0xfc00);
            ASSERT_TRUE(sameBits(got, want))
                << "L=" << l << " tileM=" << tile_m
                << " backend=" << simdBackendName(backend);
        }
    }
}

TEST(CausalFastPath, CausalADepthMatchesFullDepth)
{
    // P.V with a causal P (plain), and X'.V with the GS prologue
    // (SDF): stopping each strip at its diagonal drops only p = 0
    // terms, so the output bits match the full-depth product.
    constexpr int64_t kDHead = 19; // ragged against the 16-wide tile
    constexpr int64_t kSub = 8;    // T of the LS that made X'
    uint64_t seed = 940;
    for (const int64_t l : kCausalLengths)
    for (const int64_t tile_m : {16, 64})
    for (const bool gs : {false, true}) {
        Rng rng(seed++);
        const Tensor<Half> scores = causalScores(l, rng);
        Tensor<Half> v(Shape({l, kDHead}));
        fillNormal(v, rng, 0.0, 0.8);
        SoftmaxShape sm;
        sm.rows = l;
        sm.cols = l;
        sm.subVector = kSub;
        const Shape md({l, sm.numSubVectors()});
        Tensor<Half> a(Shape({l, l}));
        Tensor<float> local_max(md), local_sum(md), recon(md);
        if (gs) {
            lsRun(ExecContext(), sm, scores, a, local_max, local_sum);
            irRun(ExecContext(), sm, local_max, local_sum, recon);
        } else {
            rowSoftmaxRun(ExecContext(), sm, scores, a);
        }
        GemmDesc full;
        full.m = l;
        full.n = kDHead;
        full.k = l;
        full.tiling.tileM = tile_m;
        full.tiling.tileN = 16;
        full.prologue.globalScale = gs;
        full.prologue.gsSubVector = kSub;
        GemmDesc causal = full;
        causal.prologue.causalA = true;
        GemmOperands ops;
        ops.a = &a;
        ops.b = &v;
        ops.gsFactors = gs ? &recon : nullptr;
        for (const SimdBackend backend :
             {SimdBackend::Scalar, detectedSimdBackend()}) {
            Tensor<Half> want(Shape({l, kDHead})), got(Shape({l, kDHead}));
            withBackend(backend, [&] {
                gemmRun(ExecContext::fromEnv(), full, ops, want);
                gemmRun(ExecContext::fromEnv(), causal, ops, got);
            });
            ASSERT_TRUE(sameBits(got, want))
                << "L=" << l << " tileM=" << tile_m << " gs=" << gs
                << " backend=" << simdBackendName(backend);
        }
    }
}

TEST(RowSoftmax, BitIdenticalAcrossThreadCountsAndBackends)
{
    Rng rng(13);
    SoftmaxShape desc;
    desc.rows = 37;
    desc.cols = 129; // ragged against the 8-wide conversion chunks
    Tensor<Half> in(Shape({desc.rows, desc.cols}));
    fillNormal(in, rng, 0.0, 2.0);
    const auto run = [&](const ExecContext &ctx) {
        Tensor<Half> out(Shape({desc.rows, desc.cols}));
        rowSoftmaxRun(ctx, desc, in, out);
        return out;
    };
    for (const SimdBackend backend :
         {SimdBackend::Scalar, detectedSimdBackend()}) {
        withBackend(backend, [&] {
            const Tensor<Half> serial = runWith(1, run);
            for (int threads : {3, 7}) {
                const Tensor<Half> threaded = runWith(threads, run);
                for (int64_t i = 0; i < serial.numel(); ++i)
                    ASSERT_EQ(serial.data()[i].bits(),
                              threaded.data()[i].bits())
                        << "backend=" << simdBackendName(backend)
                        << " threads=" << threads << " elem=" << i;
            }
        });
    }
}

} // namespace
} // namespace softrec

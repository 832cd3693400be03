/**
 * @file
 * KV-cached decode attention implementation.
 *
 * Bit-identity contract with the prefill path (gemmRun + rowSoftmaxRun
 * + gemmRun on the full prefix):
 *
 *  - scores: fp32 accumulation in ascending d per element, then the
 *    scale epilogue, then an fp16 store — exactly the per-element
 *    order of the packed GEMM micro-kernel (which accumulates
 *    k-ascending whatever the tiling) and its epilogue/store.
 *  - softmax: safeSoftmax (kernels/softmax_row.hpp), the call
 *    rowSoftmaxRun makes per row. A causal prefill row runs it over
 *    its first i + 1 entries, exactly the context here, and stores
 *    zeros for the masked tail (were the tail computed, its
 *    exp(-inf) = +0 terms would leave the fp32 sum's bits unchanged).
 *  - output: fp32 accumulation in ascending key order per element —
 *    the micro-kernel's k-ascending order for the P.V GEMM, which
 *    stops each strip at its last row's diagonal; the p = 0 terms
 *    that strip still adds past a row's own diagonal are bit-level
 *    no-ops, so its depth matches the context here.
 *
 * The score and P.V loops (decodeScores, decodeAccumulate) keep that
 * per-element order while holding positions (QK) or d (P.V) in SIMD
 * lanes: lanes never exchange values, a ragged group loads zeros into
 * its unused lanes and stores only the used ones, and no path fuses a
 * multiply into an add (this file compiles with -ffp-contract=off).
 * fp16 widening is exact on every path and int8 dequantizes with the
 * KvRowsView::loadRow expression, so the AVX2 in-register path, the
 * portable staged path and the scalar loop give the same bits.
 */

#include "kernels/decode_attention.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "common/profiler.hpp"
#include "kernels/kernel_common.hpp"
#include "kernels/softmax_row.hpp"

// The in-register path spells its two conversions with GCC's x86
// builtins (clang lacks the int8 one), so clang builds run the
// portable path.
#if !defined(SOFTREC_SIMD_DISABLED) && defined(__x86_64__) && \
    defined(__GNUC__) && !defined(__clang__)
#define SOFTREC_DECODE_AVX2 1
#include <immintrin.h>
#endif

namespace softrec {

namespace {

typedef float Vec4 __attribute__((vector_size(16)));
typedef float Vec8 __attribute__((vector_size(32)));

/**
 * Operand b of a lane loop read from fp32 memory: b(i, l) at
 * base[i * ld + l]. A group of `count` < lanes loads zeros into the
 * rest of its lanes.
 */
struct F32Lanes
{
    const float *base;
    int64_t ld;

    [[gnu::always_inline]] void
    operator()(int64_t i, int64_t l, int64_t count, Vec4 &dst) const
    {
        dst = Vec4{};
        std::memcpy(&dst, base + i * ld + l, size_t(count) * sizeof(float));
    }
};

/**
 * One register block of a lane loop: for the `count` lanes from l0,
 * out[l] = (accumulate ? out[l] : +0) + x[i] * b(i, l) for i
 * ascending, one separate multiply and add per term.
 */
template <typename V, int NV, typename Load>
[[gnu::always_inline]] inline void
laneBlock(const float *SOFTREC_RESTRICT x, int64_t depth,
          const Load &load, int64_t l0, int64_t count, bool accumulate,
          float *SOFTREC_RESTRICT out)
{
    constexpr int64_t lanes = sizeof(V) / sizeof(float);
    V acc[NV];
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v)
        acc[v] = V{};
    if (accumulate)
        std::memcpy(acc, out + l0, size_t(count) * sizeof(float));
    for (int64_t i = 0; i < depth; ++i) {
#pragma GCC unroll 8
        for (int v = 0; v < NV; ++v) {
            V b;
            load(i, l0 + v * lanes, NV == 1 ? count : lanes, b);
            acc[v] += x[i] * b;
        }
    }
    std::memcpy(out + l0, acc, size_t(count) * sizeof(float));
}

/**
 * out[l] (+)= sum over ascending i < depth of x[i] * b(i, l), for
 * l < width: blocks of NV vectors, then single vectors, then one
 * ragged vector whose unused lanes are never stored.
 */
template <typename V, int NV, typename Load>
[[gnu::always_inline]] inline void
laneDot(const float *SOFTREC_RESTRICT x, int64_t depth,
        const Load &load, int64_t width, bool accumulate,
        float *SOFTREC_RESTRICT out)
{
    constexpr int64_t lanes = sizeof(V) / sizeof(float);
    int64_t l = 0;
    for (; l + NV * lanes <= width; l += NV * lanes)
        laneBlock<V, NV>(x, depth, load, l, NV * lanes, accumulate, out);
    for (; l + lanes <= width; l += lanes)
        laneBlock<V, 1>(x, depth, load, l, lanes, accumulate, out);
    if (l < width)
        laneBlock<V, 1>(x, depth, load, l, width - l, accumulate, out);
}

#if defined(SOFTREC_DECODE_AVX2)

// The loaders below are inlined only into spanAvx2, an avx2 function,
// so the 256-bit builtin results never cross a non-AVX call boundary;
// GCC still warns about the ABI of such a return where it parses them.
// (Intrinsics cannot stand in: an always_inline loader with a target
// attribute cannot be inlined into the target-less laneDot template.)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"

/** b(i, l) = widened fp16 base[i * ld + l], converted by F16C. */
struct F16Lanes
{
    const Half *base;
    int64_t ld;

    [[gnu::always_inline]] void
    operator()(int64_t i, int64_t l, int64_t count, Vec8 &dst) const
    {
        __m128i h = _mm_setzero_si128();
        std::memcpy(&h, base + i * ld + l, size_t(count) * sizeof(Half));
        dst = Vec8(__builtin_ia32_vcvtph2ps256(__v8hi(h)));
    }
};

/** b(i, l) = (float(base[i * ld + l]) - zero) * scale. */
struct I8Lanes
{
    const int8_t *base;
    int64_t ld;
    float zero;
    float scale;

    [[gnu::always_inline]] void
    operator()(int64_t i, int64_t l, int64_t count, Vec8 &dst) const
    {
        int64_t q = 0;
        std::memcpy(&q, base + i * ld + l, size_t(count));
        const __v8si wide =
            __builtin_ia32_pmovsxbd256(__v16qi(_mm_cvtsi64_si128(q)));
        dst = (Vec8(__builtin_ia32_cvtdq2ps256(wide)) - zero) * scale;
    }
};

#pragma GCC diagnostic pop

/**
 * One span in place: out (+)= x . b over `width` lanes, where b(i, l)
 * is element `at + i * ld + l` of the payload of `kv`'s block holding
 * `pos`. avx2 and f16c only, never fma.
 */
__attribute__((target("avx2,f16c"))) void
spanAvx2(const KvRowsView &kv, int64_t pos, int64_t at, int64_t ld,
         const float *x, int64_t depth, int64_t width, bool accumulate,
         float *out)
{
    if (kv.dtype == KvDtype::F16) {
        laneDot<Vec8, 8>(x, depth, F16Lanes{kv.halfs(pos) + at, ld},
                         width, accumulate, out);
    } else {
        const KvBlockQuant &q = kv.blockQuant(pos);
        laneDot<Vec8, 8>(x, depth,
                         I8Lanes{kv.int8s(pos) + at, ld, q.zero, q.scale},
                         width, accumulate, out);
    }
    // Clean YMM upper state before returning to SSE code (the reason
    // is spelled out in fp16/half.cpp, halfToFloatF16c).
    _mm256_zeroupper();
}

#else

/** Never called: inPlace() is false without the in-register path. */
void
spanAvx2(const KvRowsView &, int64_t, int64_t, int64_t, const float *,
         int64_t, int64_t, bool, float *)
{
}

#endif // SOFTREC_DECODE_AVX2

/**
 * Whether spanAvx2 reads this view's spans in place: on the AVX2
 * backend, when the lanes run along the contiguous direction of the
 * view's blocks (positions for QK, columns for P.V).
 */
bool
inPlace(const KvRowsView &kv, bool lanes_are_positions)
{
#if defined(SOFTREC_DECODE_AVX2)
    return kv.columnMajor == lanes_are_positions &&
           simdBackend() == SimdBackend::F16cAvx2;
#else
    (void)kv;
    (void)lanes_are_positions;
    return false;
#endif
}

/** Positions of the span starting at `t`, at most `left`. */
int64_t
spanLength(const KvRowsView &kv, int64_t t, int64_t left)
{
    return std::min({left, kv.blockTokens - t % kv.blockTokens,
                     kDecodeSpanTokens});
}

} // namespace

void
decodeScores(const DecodeAttendDesc &desc, const float *q,
             const KvRowsView &k, int64_t t0, int64_t n, float *s,
             DecodeAttendWorkspace &ws)
{
    const int64_t dh = desc.dHead;
    const bool in_place = inPlace(k, /*lanes_are_positions=*/true);
    for (int64_t t = t0; t < t0 + n;) {
        const int64_t len = spanLength(k, t, t0 + n - t);
        float *out = s + (t - t0);
        if (in_place) {
            spanAvx2(k, t, k.offset(t, desc.headOffset), k.blockTokens,
                     q, dh, len, /*accumulate=*/false, out);
        } else {
            float *span = ws.span.data();
            for (int64_t d = 0; d < dh; ++d)
                k.loadColumn(t, desc.headOffset + d, len, span + d * len);
            laneDot<Vec4, 4>(q, dh, F32Lanes{span, len}, len,
                             /*accumulate=*/false, out);
        }
        t += len;
    }
    if (desc.scale != 1.0) {
        for (int64_t j = 0; j < n; ++j)
            s[j] *= float(desc.scale);
    }
}

void
decodeAccumulate(const DecodeAttendDesc &desc, const float *p,
                 const KvRowsView &v, int64_t t0, int64_t n, float *acc,
                 DecodeAttendWorkspace &ws)
{
    const int64_t dh = desc.dHead;
    const bool in_place = inPlace(v, /*lanes_are_positions=*/false);
    for (int64_t t = t0; t < t0 + n;) {
        const int64_t len = spanLength(v, t, t0 + n - t);
        const float *x = p + (t - t0);
        if (in_place) {
            spanAvx2(v, t, v.offset(t, desc.headOffset), v.rowWidth, x,
                     len, dh, /*accumulate=*/true, acc);
        } else {
            float *span = ws.span.data();
            for (int64_t j = 0; j < len; ++j)
                v.loadRow(t + j, desc.headOffset, dh, span + j * dh);
            laneDot<Vec4, 4>(x, len, F32Lanes{span, dh}, dh,
                             /*accumulate=*/true, acc);
        }
        t += len;
    }
}

void
decodeAttendRun(const ExecContext &ctx, const DecodeAttendDesc &desc,
                const Half *q_row, const KvRowsView &k,
                const KvRowsView &v, Half *out,
                DecodeAttendWorkspace *ws)
{
    const int64_t dh = desc.dHead;
    const int64_t context = k.rows;
    SOFTREC_ASSERT(dh > 0 && context > 0 && v.rows == context,
                   "decode attention needs matching K/V contexts "
                   "(k=%lld, v=%lld)", (long long)context,
                   (long long)v.rows);
    SOFTREC_ASSERT(desc.headOffset >= 0 &&
                   desc.headOffset + dh <= k.rowWidth &&
                   k.rowWidth == v.rowWidth,
                   "head slice outside the cached row");
    prof::Scope scope(ctx, "decode.attend");
    // The fp16 score-row staging below (score store -> softmax read
    // -> probability store -> P.V read) is the same four crossings
    // the batch path attributes to its softmax.* scopes, so it gets
    // the same byte-only attribution here; without it the decode /
    // prefill traffic ratios are skewed in decode's favour.
    std::optional<prof::Scope> row_scope;
    if (scope.active()) {
        scope.addRead(uint64_t(dh) * kFp16Bytes +              // q
                      uint64_t(2 * context * dh) *
                          uint64_t(k.elemBytes()));            // K, V
        scope.addWrite(uint64_t(dh) * kFp16Bytes);
        scope.addFlops(uint64_t(4 * context * dh)); // QK and P.V
        // softrec-lint: allow(hot-path-alloc) — profiling-only
        // branch; a disabled profiler never reaches this emplace.
        row_scope.emplace(ctx, "softmax.row.decode",
                          prof::Scope::Kind::BytesOnly);
        row_scope->addWrite(uint64_t(2 * context) * kFp16Bytes);
        row_scope->addRead(uint64_t(2 * context) * kFp16Bytes);
    }

    DecodeAttendWorkspace local;
    DecodeAttendWorkspace &w = ws != nullptr ? *ws : local;
    w.prepare(dh, context);
    std::vector<float> &row = w.row;
    std::vector<Half> &row_h = w.rowH;
    halfToFloat(q_row, w.qf.data(), dh);

    // Scores: q . K^T with the scale epilogue, stored through fp16.
    decodeScores(desc, w.qf.data(), k, 0, context, row.data(), w);
    floatToHalf(row.data(), row_h.data(), context);

    // Safe softmax over the score row, exactly as rowSoftmaxRun.
    halfToFloat(row_h.data(), row.data(), context);
    const SoftmaxStats st = safeSoftmax(row.data(), context);
    floatToHalf(row.data(), row_h.data(), context);
    SOFTREC_CHECK(st.d > 0.0f || st.m == kNegInf,
                  "decode attention normalizer d = %f must be positive "
                  "(the current token always attends to itself)",
                  double(st.d));

    // Output: P . V in ascending key order per output element.
    halfToFloat(row_h.data(), row.data(), context);
    std::vector<float> &acc = w.acc;
    std::fill(acc.begin(), acc.end(), 0.0f);
    decodeAccumulate(desc, row.data(), v, 0, context, acc.data(), w);
    floatToHalf(acc.data(), out, dh);
}

} // namespace softrec

/**
 * @file
 * The fp32 steps of safe softmax (paper Eq. (2)), written once for
 * every functional kernel:
 *
 *  - LS, Local Softmax: per segment m' = max x, X' = exp(x - m'),
 *    d' = sum X';
 *  - IR, Inter-sub-vector Reduction: the row's m = max m' and
 *    d = sum exp(m' - m) d', then r' = exp(m' - m) / d;
 *  - GS, Global Scaling: Y = X' r' per segment;
 *
 * plus the whole-row safe softmax and the online-normalizer fold of
 * the streaming kernels. The order of operations is part of the
 * kernels' bit-identity contract: maxima ascend, exp-and-sum ascends
 * from +0, and each multiply and add rounds in the order written.
 * Being inline, every step compiles under its caller's flags.
 */

#ifndef SOFTREC_KERNELS_SOFTMAX_ROW_HPP
#define SOFTREC_KERNELS_SOFTMAX_ROW_HPP

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/check.hpp"

namespace softrec {

/** Score of a masked position; a segment whose max is -inf is fully
 *  masked and yields zeros with d' = 0. */
inline constexpr float kNegInf = -std::numeric_limits<float>::infinity();

/** Max and normalizer of a segment (m', d') or of a row (m, d). */
struct SoftmaxStats
{
    float m = kNegInf;
    float d = 0.0f;
};

namespace softmax_detail {

/** Max of x[0, n), ascending from -inf. In checked builds, rejects
 *  NaN: std::max(-inf, NaN) keeps -inf, so an all-NaN segment would
 *  otherwise pass as fully masked. */
inline float
segmentMax(const float *x, int64_t n)
{
    float m = kNegInf;
    for (int64_t j = 0; j < n; ++j) {
        SOFTREC_CHECK(!std::isnan(x[j]),
                      "softmax: NaN score at position %lld of %lld",
                      (long long)j, (long long)n);
        m = std::max(m, x[j]);
    }
    return m;
}

/** x <- exp(x - m) for a finite m; returns the sum, ascending from +0. */
inline float
expSum(float *x, int64_t n, float m)
{
    float d = 0.0f;
    for (int64_t j = 0; j < n; ++j) {
        const float e = std::exp(x[j] - m);
        x[j] = e;
        d += e;
    }
    return d;
}

} // namespace softmax_detail

/** LS of one segment: x <- exp(x - m'); returns (m', d'). */
inline SoftmaxStats
localSoftmax(float *x, int64_t n)
{
    SoftmaxStats st;
    st.m = softmax_detail::segmentMax(x, n);
    if (st.m == kNegInf)
        std::fill(x, x + n, 0.0f);
    else
        st.d = softmax_detail::expSum(x, n, st.m);
    return st;
}

/** Whole-row safe softmax: LS over the row, then divide by d. */
inline SoftmaxStats
safeSoftmax(float *x, int64_t n)
{
    const SoftmaxStats st = localSoftmax(x, n);
    for (int64_t j = 0; j < n; ++j)
        x[j] = st.d > 0.0f ? x[j] / st.d : 0.0f;
    return st;
}

/**
 * IR over a row's n (m', d') pairs spaced `stride` apart (1 for a
 * dense row, the block size for a BSR row). Writes each r' to the
 * matching slot of `r`, 0 for a fully masked sub-vector, and returns
 * the row's (m, d).
 */
inline SoftmaxStats
interReduce(const float *m_local, const float *d_local, int64_t n,
            int64_t stride, float *r)
{
    SoftmaxStats row;
    for (int64_t s = 0; s < n; ++s)
        row.m = std::max(row.m, m_local[s * stride]);
    for (int64_t s = 0; s < n; ++s) {
        const float m = m_local[s * stride];
        if (m != kNegInf) // fully masked: contributes nothing
            row.d += std::exp(m - row.m) * d_local[s * stride];
    }
    for (int64_t s = 0; s < n; ++s) {
        const float m = m_local[s * stride];
        r[s * stride] = m == kNegInf || row.d <= 0.0f
            ? 0.0f
            : std::exp(m - row.m) / row.d;
    }
    return row;
}

/** GS: x[j] *= r[j / width] over segments `width` elements wide. */
inline void
globalScale(float *x, int64_t n, const float *r, int64_t width)
{
    for (int64_t j0 = 0; j0 < n; j0 += width) {
        const float scale = r[j0 / width];
        const int64_t j1 = std::min(n, j0 + width);
        for (int64_t j = j0; j < j1; ++j)
            x[j] *= scale;
    }
}

/**
 * Fold a w-wide tile of scores into a row's running (m, d):
 * m_new = max(m, tile max), s <- exp(s - m_new) and
 * d <- d * exp(m - m_new) + sum s. `rescale` receives exp(m - m_new)
 * for whatever the caller accumulated under the old m. Returns false,
 * touching nothing, while every score so far is -inf.
 */
inline bool
onlineFold(float *s, int64_t w, float &m, float &d, float &rescale)
{
    const float m_new = std::max(m, softmax_detail::segmentMax(s, w));
    if (m_new == kNegInf)
        return false;
    rescale = std::exp(m - m_new); // 1.0 when m == m_new
    d = d * rescale + softmax_detail::expSum(s, w, m_new);
    m = m_new;
    return true;
}

} // namespace softrec

#endif // SOFTREC_KERNELS_SOFTMAX_ROW_HPP

/**
 * @file
 * Checked-build invariant machinery.
 *
 * SOFTREC_CHECK() is the hot-path companion to SOFTREC_ASSERT(): the
 * condition is compiled in (and enforced) only when the build defines
 * SOFTREC_CHECKED_BUILD (CMake: -DSOFTREC_CHECKED_BUILD=ON), so
 * per-element bounds checks and numeric invariants cost nothing in
 * release builds while the CI checked build still exercises them.
 * The disabled form keeps the condition inside a constant-false branch
 * so it stays type-checked and variables used only in checks do not
 * trigger -Wunused warnings.
 *
 * The checkXxx() helpers below enforce the softmax-recomposition
 * numeric contracts from Eq. (2) of the paper: no NaN poison in
 * kernel operands, reconstruction factors r' in [0, 1] (zero only for
 * fully masked sub-vectors), and post-GS probability rows summing
 * to ~1, and causally masked scores where a kernel skips the masked
 * tail. They panic unconditionally when called; call sites gate on
 * `if constexpr (kCheckedBuild)`.
 */

#ifndef SOFTREC_COMMON_CHECK_HPP
#define SOFTREC_COMMON_CHECK_HPP

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/logging.hpp"

namespace softrec {

/** True when this translation unit was compiled as a checked build. */
#ifdef SOFTREC_CHECKED_BUILD
inline constexpr bool kCheckedBuild = true;
#else
inline constexpr bool kCheckedBuild = false;
#endif

/**
 * Enforce an invariant in checked builds only. Compiles to nothing
 * (but stays type-checked) when SOFTREC_CHECKED_BUILD is not defined.
 */
#define SOFTREC_CHECK(cond, ...)                                          \
    do {                                                                  \
        if (::softrec::kCheckedBuild && !(cond)) {                        \
            ::softrec::panic("checked build: '%s' failed at %s:%d: %s",   \
                             #cond, __FILE__, __LINE__,                   \
                             ::softrec::strprintf(__VA_ARGS__).c_str());  \
        }                                                                 \
    } while (0)

/** Tolerance for post-GS row sums; covers FP16 storage rounding. */
inline constexpr double kRowSumTolerance = 1e-2;

/**
 * Panic if any element is NaN, +inf, or (unless allowed as mask
 * padding) -inf. Works on any tensor-like type with data()/numel().
 */
template <typename TensorT>
void
checkFinite(const TensorT &t, const char *what, bool allow_neg_inf = false)
{
    const auto *p = t.data();
    for (int64_t i = 0; i < t.numel(); ++i) {
        const float v = float(p[i]);
        if (std::isnan(v)) {
            panic("%s: NaN poison at linear index %lld", what,
                  (long long)i);
        }
        if (std::isinf(v) && !(allow_neg_inf && v < 0.0f)) {
            panic("%s: non-finite value %f at linear index %lld", what,
                  double(v), (long long)i);
        }
    }
}

/**
 * Panic unless every row of a rank-2 probability matrix sums to ~1.
 * Fully masked rows (all-zero) are allowed: safe softmax emits zeros
 * when every logit is -inf.
 */
template <typename TensorT>
void
checkRowSumsNearOne(const TensorT &y, const char *what)
{
    if (y.shape().rank() != 2) {
        panic("%s: row-sum check needs rank 2, got %s", what,
              y.shape().toString().c_str());
    }
    const int64_t rows = y.shape().dim(0);
    const int64_t cols = y.shape().dim(1);
    for (int64_t i = 0; i < rows; ++i) {
        double sum = 0.0;
        for (int64_t j = 0; j < cols; ++j)
            sum += double(float(y.at(i, j)));
        if (sum != 0.0 && std::abs(sum - 1.0) > kRowSumTolerance) {
            panic("%s: row %lld sums to %.6f, expected ~1 "
                  "(or 0 for a fully masked row)",
                  what, (long long)i, sum);
        }
    }
}

/**
 * Panic unless every entry past the diagonal (column j > row i) of a
 * rank-2 score matrix is -inf. A causal kernel skips those entries;
 * on unmasked scores it would silently drop real ones.
 */
template <typename TensorT>
void
checkCausallyMasked(const TensorT &s, const char *what)
{
    if (s.shape().rank() != 2) {
        panic("%s: causal-mask check needs rank 2, got %s", what,
              s.shape().toString().c_str());
    }
    const int64_t rows = s.shape().dim(0);
    const int64_t cols = s.shape().dim(1);
    for (int64_t i = 0; i < rows; ++i) {
        for (int64_t j = i + 1; j < cols; ++j) {
            const float v = float(s.at(i, j));
            if (!(std::isinf(v) && v < 0.0f)) {
                panic("%s: score %f at (%lld, %lld) is past the "
                      "diagonal but not masked to -inf",
                      what, double(v), (long long)i, (long long)j);
            }
        }
    }
}

/**
 * Panic unless every reconstruction factor r' = e^(m'-m) / d lies in
 * [0, 1]. Exact zero is legal only for fully masked sub-vectors; any
 * negative, above-one, or non-finite factor means the IR reduction
 * was corrupted.
 */
template <typename TensorT>
void
checkReconFactors(const TensorT &r, const char *what)
{
    const auto *p = r.data();
    for (int64_t i = 0; i < r.numel(); ++i) {
        const float v = float(p[i]);
        if (!(v >= 0.0f) || v > 1.0f || std::isnan(v)) {
            panic("%s: reconstruction factor %f at linear index %lld "
                  "outside (0, 1] (0 allowed only for masked "
                  "sub-vectors)",
                  what, double(v), (long long)i);
        }
    }
}

/** Span adapter so the vector-based BSR paths can reuse the checks. */
template <typename T>
struct SpanView
{
    const T *ptr;
    int64_t count;

    const T *data() const { return ptr; }
    int64_t numel() const { return count; }
};

template <typename T>
SpanView<T>
spanOf(const std::vector<T> &v)
{
    return SpanView<T>{v.data(), int64_t(v.size())};
}

} // namespace softrec

#endif // SOFTREC_COMMON_CHECK_HPP

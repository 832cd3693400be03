/**
 * @file
 * Register-blocked GEMM micro-kernel: one body written with GCC vector
 * extensions, instantiated for 8-wide vectors inside an AVX2 target
 * function and for 4-wide vectors in the portable build.
 */

#include "kernels/micro_gemm.hpp"

#include <cstring>

#include "fp16/half.hpp"

#if !defined(SOFTREC_SIMD_DISABLED) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define SOFTREC_SIMD_X86 1
#include <immintrin.h>
#endif

namespace softrec {

namespace {

typedef float Vec4 __attribute__((vector_size(16)));
typedef float Vec8 __attribute__((vector_size(32)));

/** Output rows per register block. */
constexpr int kMicroRows = 4;

/**
 * One mr x (nv vectors) output block: accumulators live in registers
 * for the whole k sweep and are stored once. always_inline lets the
 * body take the caller's target, so the Vec8 instantiation compiles
 * to AVX2 only inside microGemmAvx2.
 */
template <typename V, int MR, int NV>
[[gnu::always_inline]] inline void
microBlock(const float *SOFTREC_RESTRICT a, int64_t lda,
           const float *SOFTREC_RESTRICT b, int64_t ldb,
           float *SOFTREC_RESTRICT c, int64_t ldc, int64_t k)
{
    constexpr int64_t lanes = sizeof(V) / sizeof(float);
    V acc[MR][NV];
#pragma GCC unroll 8
    for (int r = 0; r < MR; ++r)
#pragma GCC unroll 8
        for (int v = 0; v < NV; ++v)
            acc[r][v] = V{}; // +0 in every lane, as the scalar loop
    for (int64_t kk = 0; kk < k; ++kk) {
        V bv[NV];
#pragma GCC unroll 8
        for (int v = 0; v < NV; ++v)
            std::memcpy(&bv[v], b + kk * ldb + v * lanes, sizeof(V));
#pragma GCC unroll 8
        for (int r = 0; r < MR; ++r) {
            const float x = a[r * lda + kk];
#pragma GCC unroll 8
            for (int v = 0; v < NV; ++v)
                acc[r][v] += x * bv[v];
        }
    }
#pragma GCC unroll 8
    for (int r = 0; r < MR; ++r)
#pragma GCC unroll 8
        for (int v = 0; v < NV; ++v)
            std::memcpy(c + r * ldc + v * lanes, &acc[r][v], sizeof(V));
}

/**
 * Columns [j, n) in blocks of NV vectors, each block over all rows:
 * kMicroRows at a time, then single rows for a ragged m. Returns the
 * first column left over.
 */
template <typename V, int NV>
[[gnu::always_inline]] inline int64_t
sweepColumns(int64_t j, const float *SOFTREC_RESTRICT a, int64_t lda,
             const float *SOFTREC_RESTRICT b, int64_t ldb,
             float *SOFTREC_RESTRICT c, int64_t ldc, int64_t m,
             int64_t n, int64_t k)
{
    constexpr int64_t cols = NV * int64_t(sizeof(V) / sizeof(float));
    for (; j + cols <= n; j += cols) {
        int64_t i = 0;
        for (; i + kMicroRows <= m; i += kMicroRows)
            microBlock<V, kMicroRows, NV>(a + i * lda, lda, b + j, ldb,
                                          c + i * ldc + j, ldc, k);
        for (; i < m; ++i)
            microBlock<V, 1, NV>(a + i * lda, lda, b + j, ldb,
                                 c + i * ldc + j, ldc, k);
    }
    return j;
}

/** Two-vector blocks, then one-vector blocks, then scalar columns. */
template <typename V>
[[gnu::always_inline]] inline void
microGemmBody(const float *SOFTREC_RESTRICT a, int64_t lda,
              const float *SOFTREC_RESTRICT b, int64_t ldb,
              float *SOFTREC_RESTRICT c, int64_t ldc, int64_t m,
              int64_t n, int64_t k)
{
    int64_t j = sweepColumns<V, 2>(0, a, lda, b, ldb, c, ldc, m, n, k);
    j = sweepColumns<V, 1>(j, a, lda, b, ldb, c, ldc, m, n, k);
    for (int64_t i = 0; i < m; ++i) {
        for (int64_t jj = j; jj < n; ++jj) {
            float s = 0.0f;
            for (int64_t kk = 0; kk < k; ++kk)
                s += a[i * lda + kk] * b[kk * ldb + jj];
            c[i * ldc + jj] = s;
        }
    }
}

#if defined(SOFTREC_SIMD_X86)

// avx2 only, never fma: see the numerics contract in micro_gemm.hpp.
__attribute__((target("avx2"))) void
microGemmAvx2(const float *SOFTREC_RESTRICT a, int64_t lda,
              const float *SOFTREC_RESTRICT b, int64_t ldb,
              float *SOFTREC_RESTRICT c, int64_t ldc, int64_t m,
              int64_t n, int64_t k)
{
    microGemmBody<Vec8>(a, lda, b, ldb, c, ldc, m, n, k);
    // Clean YMM upper state before returning to SSE code (the reason
    // is spelled out in fp16/half.cpp, halfToFloatF16c).
    _mm256_zeroupper();
}

#endif // SOFTREC_SIMD_X86

} // namespace

void
microGemm(const float *SOFTREC_RESTRICT a, int64_t lda,
          const float *SOFTREC_RESTRICT b, int64_t ldb,
          float *SOFTREC_RESTRICT c, int64_t ldc, int64_t m, int64_t n,
          int64_t k)
{
#if defined(SOFTREC_SIMD_X86)
    if (simdBackend() == SimdBackend::F16cAvx2) {
        microGemmAvx2(a, lda, b, ldb, c, ldc, m, n, k);
        return;
    }
#endif
    microGemmBody<Vec4>(a, lda, b, ldb, c, ldc, m, n, k);
}

} // namespace softrec

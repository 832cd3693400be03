/**
 * @file
 * The fp32 GEMM micro-kernel behind every packed-panel GEMM: gemmRun's
 * output tiles and the streaming-attention score tiles.
 *
 * It holds a block of 4 output rows x 2 SIMD vectors (4 x 16 with
 * AVX2: eight YMM accumulators) in registers over the whole k depth
 * and stores it once. The AVX2 implementation runs when simdBackend()
 * is F16cAvx2; a portable one written with GCC vector extensions runs
 * otherwise (SSE2, NEON, SOFTREC_SIMD=off, -DSOFTREC_SIMD=OFF).
 *
 * Numerics contract: every output element starts at +0 and adds
 * a[i, kk] * b[kk, j] for kk ascending, as a separate multiply and a
 * separate add. That is the order of a scalar triple loop, so the
 * register blocking, the vector width and the backend are invisible
 * in the result bits. A fused multiply-add rounds once instead of
 * twice and would break that identity, so the kernel is never built
 * with FMA enabled and its source compiles with -ffp-contract=off.
 */

#ifndef SOFTREC_KERNELS_MICRO_GEMM_HPP
#define SOFTREC_KERNELS_MICRO_GEMM_HPP

#include <cstdint>

#include "kernels/kernel_common.hpp"

namespace softrec {

/**
 * c[i, j] = sum over ascending kk of a[i, kk] * b[kk, j], for i < m
 * and j < n, overwriting c (no prior zero-fill needed). Row-major
 * operands: a has leading dimension lda, the packed panel b has ldb
 * and c has ldc. Ragged m and n (not multiples of the register block)
 * are handled inside; b and c must not overlap a or each other.
 */
void microGemm(const float *SOFTREC_RESTRICT a, int64_t lda,
               const float *SOFTREC_RESTRICT b, int64_t ldb,
               float *SOFTREC_RESTRICT c, int64_t ldc, int64_t m,
               int64_t n, int64_t k);

} // namespace softrec

#endif // SOFTREC_KERNELS_MICRO_GEMM_HPP

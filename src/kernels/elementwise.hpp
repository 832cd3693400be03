/**
 * @file
 * Memory-bound element-wise and normalization kernels that fill out
 * the transformer layer schedule: LayerNorm, residual add, standalone
 * bias/GeLU and scale/mask (for the unfused library baselines of
 * Fig. 7), head reshapes, and embedding lookup.
 */

#ifndef SOFTREC_KERNELS_ELEMENTWISE_HPP
#define SOFTREC_KERNELS_ELEMENTWISE_HPP

#include <string>

#include "common/exec_context.hpp"
#include "fp16/half.hpp"
#include "sim/kernel_profile.hpp"
#include "tensor/tensor.hpp"

namespace softrec {

/** LayerNorm over [rows, width] (two-pass mean/var + scale). */
KernelProfile layerNormProfile(const GpuSpec &spec,
                               const std::string &name, int64_t rows,
                               int64_t width);

/** Functional LayerNorm with fp32 statistics (row-parallel). */
void layerNormRun(const ExecContext &ctx, const Tensor<Half> &in,
                  const Tensor<float> &gamma, const Tensor<float> &beta,
                  Tensor<Half> &out, float epsilon = 1e-5f);

/** Residual addition out = a + b over `elems` fp16 elements. */
KernelProfile residualAddProfile(const GpuSpec &spec,
                                 const std::string &name, int64_t elems);

/** Functional residual addition (element-chunk parallel). */
void residualAddRun(const ExecContext &ctx, const Tensor<Half> &a,
                    const Tensor<Half> &b, Tensor<Half> &out);

/** Standalone bias + optional GeLU over [rows, width]. */
KernelProfile biasActProfile(const GpuSpec &spec, const std::string &name,
                             int64_t rows, int64_t width, bool gelu);

/**
 * Standalone scale and/or mask pass over the attention matrix — what
 * an unfused library (HuggingFace eager mode) launches between the
 * QK^T GEMM and the softmax.
 */
KernelProfile scaleMaskProfile(const GpuSpec &spec,
                               const std::string &name, int64_t batch,
                               int64_t rows, int64_t cols);

/**
 * Head split/merge reshape of a [L, Dm] activation (read + write),
 * launched around the SDA block by layout-sensitive libraries.
 */
KernelProfile reshapeProfile(const GpuSpec &spec, const std::string &name,
                             int64_t elems);

/** Embedding gather producing [rows, width] fp16. */
KernelProfile embeddingProfile(const GpuSpec &spec,
                               const std::string &name, int64_t rows,
                               int64_t width);

} // namespace softrec

#endif // SOFTREC_KERNELS_ELEMENTWISE_HPP

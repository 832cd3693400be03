/**
 * @file
 * Dense softmax kernels.
 *
 *  - rowSoftmax*: the baseline fused safe-softmax kernel (one row
 *    vector per thread block, Fig. 3(a)); the configuration the paper's
 *    baseline inherits from TensorRT.
 *  - ls / ir / gs: the three decomposed sub-layer kernels of Fig. 4
 *    (Local Softmax, Inter-sub-vector Reduction, Global Scaling), run
 *    standalone in the SD configuration.
 *
 * Functional implementations compute with fp32 intermediates on fp16
 * storage, mirroring the modeled kernels, and parallelize over rows
 * through the ExecContext they take as first parameter (bit-identical
 * for any thread count — see common/exec_context.hpp).
 */

#ifndef SOFTREC_KERNELS_SOFTMAX_KERNELS_HPP
#define SOFTREC_KERNELS_SOFTMAX_KERNELS_HPP

#include <string>

#include "common/exec_context.hpp"
#include "fp16/half.hpp"
#include "sim/kernel_profile.hpp"
#include "tensor/tensor.hpp"

namespace softrec {

/**
 * Problem shape shared by all dense softmax kernels. The whole-row
 * kernels (rowSoftmax*, onlineRowSoftmaxProfile) ignore subVector; the
 * decomposed LS/IR/GS kernels require it > 0.
 */
struct SoftmaxShape
{
    std::string name = "softmax";
    int64_t batch = 1;      //!< independent matrices (batch x heads)
    int64_t rows = 0;       //!< attention rows (L)
    int64_t cols = 0;       //!< attention columns (L)
    int64_t subVector = 0;  //!< sub-vector width T; 0 = whole-row
    /**
     * rowSoftmaxRun only: the scores are causally masked (-inf past
     * the diagonal), so row i reads its first min(cols, i + 1) entries
     * and writes zeros over the rest, bit-identical to the full row.
     */
    bool causal = false;

    /** Number of sub-vectors per row (N_sv = ceil(L / T)). */
    int64_t numSubVectors() const;
};

/** Baseline row-softmax launch profile (one row per TB). */
KernelProfile rowSoftmaxProfile(const GpuSpec &spec,
                                const SoftmaxShape &desc);

/** Functional safe softmax along rows: out = softmax(in). */
void rowSoftmaxRun(const ExecContext &ctx, const SoftmaxShape &desc,
                   const Tensor<Half> &in, Tensor<Half> &out);

/**
 * Online-normalizer row softmax (Milakov & Gimelshein, related work
 * [21]): computes max and normalizer in a single fused pass, so only
 * two dependent passes remain instead of three. Same off-chip traffic
 * as the baseline kernel but a better serialization factor — still an
 * unfused kernel, so it cannot remove the attention-matrix sweeps the
 * way recomposition does.
 */
KernelProfile onlineRowSoftmaxProfile(const GpuSpec &spec,
                                      const SoftmaxShape &desc);

/** LS kernel profile: square tiles of sub-vectors per TB. */
KernelProfile lsProfile(const GpuSpec &spec, const SoftmaxShape &desc);

/**
 * Functional Local Softmax: per sub-vector k of each row, emit
 * X'= exp(x - m'_k), the local max m'_k and local sum d'_k.
 *
 * @param x_prime out, same shape as in (fp16)
 * @param local_max out, [rows, N_sv] (fp32)
 * @param local_sum out, [rows, N_sv] (fp32)
 */
void lsRun(const ExecContext &ctx, const SoftmaxShape &desc,
           const Tensor<Half> &in, Tensor<Half> &x_prime,
           Tensor<float> &local_max, Tensor<float> &local_sum);

/** IR kernel profile: one row's (m', d') pairs per thread. */
KernelProfile irProfile(const GpuSpec &spec, const SoftmaxShape &desc);

/**
 * Functional Inter-sub-vector Reduction: per row, reduce
 * m = max_k m'_k and d = sum_k e^(m'_k - m) d'_k, then emit the
 * reconstruction factors r'_k = e^(m'_k - m) / d.
 *
 * @param recon out, [rows, N_sv] (fp32)
 */
void irRun(const ExecContext &ctx, const SoftmaxShape &desc,
           const Tensor<float> &local_max,
           const Tensor<float> &local_sum, Tensor<float> &recon);

/** GS kernel profile: element-wise streaming. */
KernelProfile gsProfile(const GpuSpec &spec, const SoftmaxShape &desc);

/** Functional Global Scaling: y = x' * r'[row, j / T]. */
void gsRun(const ExecContext &ctx, const SoftmaxShape &desc,
           const Tensor<Half> &x_prime, const Tensor<float> &recon,
           Tensor<Half> &y);

} // namespace softrec

#endif // SOFTREC_KERNELS_SOFTMAX_KERNELS_HPP

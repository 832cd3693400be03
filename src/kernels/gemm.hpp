/**
 * @file
 * Dense GEMM kernel with the outer-product dataflow of Fig. 3(b), plus
 * the fused epilogues/prologues that softmax recomposition needs:
 *
 *  - epilogue: scale, causal mask, bias, GeLU, and Local Softmax (LS) —
 *    the paper's fusion of the first decomposed softmax sub-layer into
 *    the preceding MatMul (Section 3.3);
 *  - prologue: Global Scaling (GS) applied while loading the LHS
 *    operand — the fusion of the last sub-layer into the following
 *    MatMul.
 *
 * Each kernel exposes (a) an analytical launch profile for the GPU
 * cost model and (b) a functional CPU implementation that mirrors the
 * tiled dataflow exactly (fp32 accumulation, fp16 storage), used by the
 * tests and examples.
 */

#ifndef SOFTREC_KERNELS_GEMM_HPP
#define SOFTREC_KERNELS_GEMM_HPP

#include <string>

#include "common/exec_context.hpp"
#include "fp16/half.hpp"
#include "kernels/kernel_common.hpp"
#include "sim/kernel_profile.hpp"
#include "tensor/tensor.hpp"

namespace softrec {

/** GEMM efficiency classes (see calibration.hpp for the values). */
enum class GemmShapeClass {
    LargeFc,        //!< big FC/FF GEMMs, N/K >= 1024
    Attention,      //!< thin QK^T / P.V GEMMs with D_head = 64
    AttentionWide,  //!< attention GEMMs with D_head >= 128
    BlockSparse,    //!< block-sparse SDD/DSD GEMMs
};

/** Tensor-core efficiency of a shape class. */
double gemmEfficiencyOf(GemmShapeClass shape_class);

/** Element-wise work appended after the GEMM mainloop. */
struct GemmEpilogue
{
    double scale = 1.0;        //!< multiply outputs (1/sqrt(D_head))
    bool causalMask = false;   //!< mask j > i to -inf before softmax
    bool bias = false;         //!< add a per-column bias vector
    bool gelu = false;         //!< GeLU activation (FF first GEMM)
    bool localSoftmax = false; //!< fused LS sub-layer (SDF)

    /** True if any epilogue work is configured. */
    bool any() const
    {
        return scale != 1.0 || causalMask || bias || gelu ||
               localSoftmax;
    }
};

/** Element-wise work applied while loading the LHS operand. */
struct GemmPrologue
{
    bool globalScale = false; //!< fused GS sub-layer (SDF)
    /** Sub-vector width T the incoming X' was produced with. */
    int64_t gsSubVector = 64;
    /**
     * Row i of A is zero past column i (a causal P or X'), so rows
     * [m0, m0 + mh) need only the first m0 + mh columns of A and rows
     * of B: the skipped terms are p = 0 products, which leave an fp32
     * sum that started at +0 bit-for-bit unchanged.
     */
    bool causalA = false;
};

/** Full description of one (possibly batched) GEMM launch. */
struct GemmDesc
{
    std::string name = "gemm";
    KernelCategory category = KernelCategory::Fc;
    int64_t batch = 1; //!< independent problems (batch x heads)
    int64_t m = 0;     //!< output rows
    int64_t n = 0;     //!< output columns
    int64_t k = 0;     //!< inner dimension
    GemmShapeClass shapeClass = GemmShapeClass::LargeFc;
    GemmTiling tiling;
    GemmEpilogue epilogue;
    GemmPrologue prologue;
    /** Max/mean work per TB (1.0 for dense). */
    double workImbalance = 1.0;
};

/**
 * Analytical launch profile of the GEMM on a given GPU: geometry,
 * DRAM traffic under the L2 reuse rule, and arithmetic work.
 */
KernelProfile gemmProfile(const GpuSpec &spec, const GemmDesc &desc);

/** Per-sub-vector outputs of a fused LS epilogue. */
struct LsOutputs
{
    /** Local maxima m', shape [m, ceil(n / tileN)]. */
    Tensor<float> *localMax = nullptr;
    /** Local normalizers d', shape [m, ceil(n / tileN)]. */
    Tensor<float> *localSum = nullptr;
};

/** Operands of a functional (2-D, batch = 1) GEMM execution. */
struct GemmOperands
{
    const Tensor<Half> *a = nullptr; //!< [m, k]
    const Tensor<Half> *b = nullptr; //!< [k, n], or [n, k] transposed
    bool transposeB = false;         //!< Q.K^T convention
    const Tensor<float> *bias = nullptr; //!< [n], fp32
    /** GS factors r', shape [m, ceil(k / gsSubVector)], fp32. */
    const Tensor<float> *gsFactors = nullptr;
};

/**
 * Functional tiled GEMM, faithful to the modeled dataflow: fp16
 * operands, fp32 tile accumulators, epilogue applied per output tile
 * (so a fused LS uses sub-vectors of exactly tileN columns), results
 * rounded to fp16 on store. Parallelizes over m-tile strips; each
 * strip owns its accumulator and writes disjoint output rows, so
 * results are bit-identical for any thread count.
 *
 * Causal work is skipped without changing a bit: with
 * epilogue.causalMask, a tile whose first column lies past the
 * strip's last row is neither multiplied nor scaled (the mask would
 * overwrite every product with -inf, and still does), and with
 * prologue.causalA the strip's depth stops at its last row's
 * diagonal. The profiler is credited with the FLOPs and A bytes
 * actually used.
 *
 * @param ctx execution context (serial when default-constructed)
 * @param desc launch description (batch must be 1)
 * @param ops operand tensors
 * @param c output, shape [m, n]
 * @param ls destination for m'/d' when epilogue.localSoftmax is set
 */
void gemmRun(const ExecContext &ctx, const GemmDesc &desc,
             const GemmOperands &ops, Tensor<Half> &c,
             const LsOutputs *ls = nullptr);

/** GeLU (tanh approximation), exposed for reuse and tests. */
float geluApprox(float x);

} // namespace softrec

#endif // SOFTREC_KERNELS_GEMM_HPP

/**
 * @file
 * Functional (CPU-executed) transformer encoder layer.
 *
 * Everything else in src/model plans kernels for the performance
 * model; this module actually *computes* one full encoder layer —
 * QKV projections, multi-head attention under any softmax strategy,
 * output projection, residual/LayerNorm, and the FeedForward block —
 * through the functional kernel implementations, with fp16 storage
 * throughout. It exists to demonstrate end to end that softmax
 * recomposition leaves a real transformer layer's numerics intact,
 * not just an isolated attention head's. The layer body (runLayer)
 * is written once here: the encoder layer, the serving prefill and
 * the decode step (model/decode.hpp) each plug in only their
 * attention step.
 */

#ifndef SOFTREC_MODEL_FUNCTIONAL_LAYER_HPP
#define SOFTREC_MODEL_FUNCTIONAL_LAYER_HPP

#include <functional>

#include "common/exec_context.hpp"
#include "common/rng.hpp"
#include "core/recomposition.hpp"
#include "fp16/half.hpp"
#include "sparse/bsr.hpp"
#include "tensor/tensor.hpp"

namespace softrec {

/** All parameters of one encoder layer. */
struct EncoderLayerWeights
{
    Tensor<Half> wq, wk, wv, wo;  //!< projections, [dModel, dModel]
    Tensor<float> bq, bk, bv, bo; //!< projection biases, [dModel]
    Tensor<float> gamma1, beta1;  //!< post-attention LayerNorm
    Tensor<Half> w1, w2;          //!< FF weights, [dm, dFf], [dFf, dm]
    Tensor<float> b1, b2;         //!< FF biases
    Tensor<float> gamma2, beta2;  //!< post-FF LayerNorm

    /** Random initialization (transformer-standard scales). */
    static EncoderLayerWeights random(int64_t d_model, int64_t d_ff,
                                      Rng &rng);
};

/** Shape and execution options of the functional layer. */
struct FunctionalLayerConfig
{
    int64_t dModel = 64;
    int64_t numHeads = 4;
    int64_t dFf = 128;
    bool causalMask = false;
    /**
     * Block-sparse attention structure shared by all heads; nullptr
     * runs dense attention. The block size must equal subVector.
     */
    const BsrLayout *layout = nullptr;
    Strategy strategy = Strategy::Baseline;
    /**
     * Attention backend: Recomposed runs `strategy`; Streaming runs
     * the single-pass online-softmax kernel (dense only). The serving
     * stack (DecoderStack::random) seeds this from SOFTREC_ATTENTION.
     */
    AttentionBackend attention = AttentionBackend::Recomposed;
    int64_t subVector = 16;
    GemmTiling attnTiling{16, 16, 16, 256, 128};

    int64_t dHead() const { return dModel / numHeads; }
};

/**
 * Buffers of one layer pass over R rows: the layer input/output and
 * every intermediate the layer body produces. Callers own it, so a
 * serving loop reuses one across layers, chunks and steps. Sizing is
 * capacity-reusing and skips buffers that already have their shape,
 * so once the buffers reach their high-water shape a pass allocates
 * nothing.
 */
struct LayerWorkspace
{
    Tensor<Half> x;         //!< layer input/output, [R, dModel]
    Tensor<Half> q, k, v;   //!< projections, [R, dModel]
    Tensor<Half> attention; //!< concatenated head outputs
    Tensor<Half> projected; //!< fc.out result
    Tensor<Half> postAttn;  //!< x + attention
    Tensor<Half> hidden;    //!< post-attention LayerNorm
    Tensor<Half> ff1;       //!< [R, dFf]
    Tensor<Half> ff2;       //!< [R, dModel]
    Tensor<Half> out;       //!< post-FF LayerNorm

    /** Size x, q, k, v and attention to [rows, d_model]. */
    void prepareAttention(int64_t rows, int64_t d_model);
    /** Size the buffers written after attention (projected … out). */
    void prepareFeedForward(int64_t rows, int64_t d_model, int64_t d_ff);
};

/**
 * The one transformer-layer body, in place on `ws.x`: the fc.q/k/v
 * projections, then `attend`, then fc.out, residual, LayerNorm,
 * ff.1 with GELU, ff.2, residual and LayerNorm. `attend` is the
 * caller's attention step: it reads ws.q/k/v and fills
 * ws.attention ([R, dModel], heads concatenated). On return ws.x
 * holds the layer output and ws.k/v still hold this layer's K/V.
 *
 * The caller only provides ws.x. The other buffers are sized as the
 * layer reaches them; the post-attention ones after `attend`, so a
 * fresh workspace never holds them while a long prompt's attention
 * temporaries are live.
 *
 * Every stage but `attend` is row-local (the packed GEMM computes
 * each output row independently), so a row's result depends only on
 * its own input and attention output — which is what lets one-shot
 * prefill, chunked prefill and batched decode share bits.
 */
void runLayer(const ExecContext &ctx, const EncoderLayerWeights &weights,
              LayerWorkspace &ws, const std::function<void()> &attend);

/**
 * The batched multi-head attention step of runEncoderLayer and of
 * every prefill chunk: the R query rows in ws.q attend, head by head,
 * through runAttention under the configured strategy and backend,
 * over the first `kv_len` rows of `k`/`v` (dModel wide,
 * kv_len >= R), and the heads land concatenated in ws.attention.
 * Causal queries are the last R of the kv_len positions
 * (SdaConfig::kvLen's offset rule), so a prefill chunk of rows
 * [c0, c0 + R) passes the prompt prefix [0, c0 + R) and each of its
 * rows computes what row c0 + i of the whole prompt does.
 */
void attendHeads(const ExecContext &ctx,
                 const FunctionalLayerConfig &config, LayerWorkspace &ws,
                 const Tensor<Half> &k, const Tensor<Half> &v,
                 int64_t kv_len);

/**
 * Run one encoder layer: LayerNorm(x + MHA(x)), then
 * LayerNorm(h + FF(h)). Attention heads run in parallel under the
 * context; every kernel inside is chunk-deterministic, so the output
 * is bit-identical for any thread count.
 *
 * @param ctx execution context (serial when default-constructed)
 * @param input [L, dModel] fp16
 * @return [L, dModel] fp16
 */
Tensor<Half> runEncoderLayer(const ExecContext &ctx,
                             const FunctionalLayerConfig &config,
                             const EncoderLayerWeights &weights,
                             const Tensor<Half> &input);

/**
 * y = x W + b through the functional GEMM with the layer-standard
 * 16x16x16 tiling, fp16 storage. Every projection of runLayer goes
 * through it.
 *
 * @param x [rows, k] fp16
 * @param w [k, n] fp16
 * @param bias [n] fp32
 */
Tensor<Half> projectRows(const ExecContext &ctx, const char *name,
                         const Tensor<Half> &x, const Tensor<Half> &w,
                         const Tensor<float> &bias, bool gelu = false);

/**
 * projectRows into a caller-owned output tensor (pre-sized to
 * [rows, n]), so callers on the per-token decode path can reuse a
 * step-lifetime buffer instead of allocating a fresh tensor per
 * projection. Bit-identical to projectRows.
 */
void projectRowsInto(const ExecContext &ctx, const char *name,
                     const Tensor<Half> &x, const Tensor<Half> &w,
                     const Tensor<float> &bias, bool gelu,
                     Tensor<Half> &out);

} // namespace softrec

#endif // SOFTREC_MODEL_FUNCTIONAL_LAYER_HPP

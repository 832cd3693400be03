/**
 * @file
 * Functional encoder layer implementation.
 */

#include "model/functional_layer.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.hpp"
#include "common/profiler.hpp"
#include "core/attention_exec.hpp"
#include "kernels/elementwise.hpp"
#include "kernels/gemm.hpp"
#include "tensor/tensor_ops.hpp"

namespace softrec {

EncoderLayerWeights
EncoderLayerWeights::random(int64_t d_model, int64_t d_ff, Rng &rng)
{
    const double proj_std = 1.0 / std::sqrt(double(d_model));
    const double ff_std = 1.0 / std::sqrt(double(d_ff));
    EncoderLayerWeights w{
        Tensor<Half>(Shape({d_model, d_model})),
        Tensor<Half>(Shape({d_model, d_model})),
        Tensor<Half>(Shape({d_model, d_model})),
        Tensor<Half>(Shape({d_model, d_model})),
        Tensor<float>(Shape({d_model})),
        Tensor<float>(Shape({d_model})),
        Tensor<float>(Shape({d_model})),
        Tensor<float>(Shape({d_model})),
        Tensor<float>(Shape({d_model}), 1.0f),
        Tensor<float>(Shape({d_model})),
        Tensor<Half>(Shape({d_model, d_ff})),
        Tensor<Half>(Shape({d_ff, d_model})),
        Tensor<float>(Shape({d_ff})),
        Tensor<float>(Shape({d_model})),
        Tensor<float>(Shape({d_model}), 1.0f),
        Tensor<float>(Shape({d_model})),
    };
    fillNormal(w.wq, rng, 0.0, proj_std);
    fillNormal(w.wk, rng, 0.0, proj_std);
    fillNormal(w.wv, rng, 0.0, proj_std);
    fillNormal(w.wo, rng, 0.0, proj_std);
    fillNormal(w.w1, rng, 0.0, proj_std);
    fillNormal(w.w2, rng, 0.0, ff_std);
    for (int64_t i = 0; i < d_model; ++i) {
        w.bq.at(i) = float(rng.normal(0.0, 0.02));
        w.bk.at(i) = float(rng.normal(0.0, 0.02));
        w.bv.at(i) = float(rng.normal(0.0, 0.02));
        w.bo.at(i) = float(rng.normal(0.0, 0.02));
        w.b2.at(i) = float(rng.normal(0.0, 0.02));
    }
    for (int64_t i = 0; i < d_ff; ++i)
        w.b1.at(i) = float(rng.normal(0.0, 0.02));
    return w;
}

void
projectRowsInto(const ExecContext &ctx, const char *name,
                const Tensor<Half> &x, const Tensor<Half> &w,
                const Tensor<float> &bias, bool gelu,
                Tensor<Half> &out)
{
    GemmDesc desc;
    desc.name = name;
    desc.m = x.shape().dim(0);
    desc.k = x.shape().dim(1);
    desc.n = w.shape().dim(1);
    desc.epilogue.bias = true;
    desc.epilogue.gelu = gelu;
    desc.tiling.tileM = 16;
    desc.tiling.tileN = 16;
    desc.tiling.tileK = 16;
    GemmOperands ops;
    ops.a = &x;
    ops.b = &w;
    ops.bias = &bias;
    SOFTREC_ASSERT(out.shape().rank() == 2 &&
                   out.shape().dim(0) == desc.m &&
                   out.shape().dim(1) == desc.n,
                   "projectRowsInto %s: out must be [%lld, %lld], "
                   "got %s", name, (long long)desc.m,
                   (long long)desc.n, out.shape().toString().c_str());
    gemmRun(ctx, desc, ops, out);
}

Tensor<Half>
projectRows(const ExecContext &ctx, const char *name,
            const Tensor<Half> &x, const Tensor<Half> &w,
            const Tensor<float> &bias, bool gelu)
{
    Tensor<Half> out(Shape({x.shape().dim(0), w.shape().dim(1)}));
    projectRowsInto(ctx, name, x, w, bias, gelu, out);
    return out;
}

namespace {

/** Give `t` the shape [rows, cols], keeping it when it already has it. */
void
shapeAs(Tensor<Half> &t, int64_t rows, int64_t cols)
{
    const Shape &s = t.shape();
    if (s.rank() != 2 || s.dim(0) != rows || s.dim(1) != cols)
        t.resize(Shape({rows, cols}));
}

/** Copy head columns [h*dh, (h+1)*dh) of the first `rows` rows. */
Tensor<Half>
sliceHead(const Tensor<Half> &x, int64_t rows, int64_t head,
          int64_t d_head)
{
    Tensor<Half> out(Shape({rows, d_head}));
    for (int64_t i = 0; i < rows; ++i)
        std::copy(x.rowPtr(i) + head * d_head,
                  x.rowPtr(i) + (head + 1) * d_head, out.rowPtr(i));
    return out;
}

} // namespace

void
LayerWorkspace::prepareAttention(int64_t rows, int64_t d_model)
{
    for (Tensor<Half> *t : {&x, &q, &k, &v, &attention})
        shapeAs(*t, rows, d_model);
}

void
LayerWorkspace::prepareFeedForward(int64_t rows, int64_t d_model,
                                   int64_t d_ff)
{
    for (Tensor<Half> *t : {&projected, &postAttn, &hidden, &ff2, &out})
        shapeAs(*t, rows, d_model);
    shapeAs(ff1, rows, d_ff);
}

void
runLayer(const ExecContext &ctx, const EncoderLayerWeights &w,
         LayerWorkspace &ws, const std::function<void()> &attend)
{
    const int64_t rows = ws.x.shape().dim(0);
    const int64_t dm = ws.x.shape().dim(1);

    // QKV projections.
    ws.prepareAttention(rows, dm);
    projectRowsInto(ctx, "fc.q", ws.x, w.wq, w.bq, false, ws.q);
    projectRowsInto(ctx, "fc.k", ws.x, w.wk, w.bk, false, ws.k);
    projectRowsInto(ctx, "fc.v", ws.x, w.wv, w.bv, false, ws.v);

    attend();

    // Output projection, residual, LayerNorm.
    ws.prepareFeedForward(rows, dm, w.w1.shape().dim(1));
    projectRowsInto(ctx, "fc.out", ws.attention, w.wo, w.bo, false,
                    ws.projected);
    residualAddRun(ctx, ws.x, ws.projected, ws.postAttn);
    layerNormRun(ctx, ws.postAttn, w.gamma1, w.beta1, ws.hidden);

    // FeedForward, residual, LayerNorm.
    projectRowsInto(ctx, "ff.1", ws.hidden, w.w1, w.b1, /*gelu=*/true,
                    ws.ff1);
    projectRowsInto(ctx, "ff.2", ws.ff1, w.w2, w.b2, false, ws.ff2);
    residualAddRun(ctx, ws.hidden, ws.ff2, ws.postAttn);
    layerNormRun(ctx, ws.postAttn, w.gamma2, w.beta2, ws.out);
    std::swap(ws.x, ws.out);
}

void
attendHeads(const ExecContext &ctx, const FunctionalLayerConfig &config,
            LayerWorkspace &ws, const Tensor<Half> &k,
            const Tensor<Half> &v, int64_t kv_len)
{
    const int64_t rows = ws.q.shape().dim(0);
    const int64_t dh = config.dHead();
    SOFTREC_ASSERT(kv_len >= rows && kv_len <= k.shape().dim(0) &&
                   kv_len <= v.shape().dim(0),
                   "attendHeads: %lld key rows for %lld queries",
                   (long long)kv_len, (long long)rows);
    SdaConfig sda;
    sda.seqLen = rows;
    sda.kvLen = kv_len;
    sda.dHead = dh;
    sda.causalMask = config.causalMask;
    sda.layout = config.layout;
    sda.subVector = config.subVector;
    sda.attnTiling = config.attnTiling;
    sda.backend = config.attention;

    // Heads are independent problems writing disjoint column bands of
    // the concatenated output, so they parallelize at grain 1; the
    // kernels inside each head then run inline (nested regions
    // degrade to serial), keeping the math order head-local and the
    // result bit-identical for any thread count.
    parallelFor(ctx, 0, config.numHeads, 1,
                [&](int64_t head0, int64_t head1) {
        for (int64_t head = head0; head < head1; ++head) {
            AttentionInputs head_inputs{
                sliceHead(ws.q, rows, head, dh),
                sliceHead(k, kv_len, head, dh),
                sliceHead(v, kv_len, head, dh)};
            const Tensor<Half> head_out =
                runAttention(ctx, sda, head_inputs, config.strategy);
            for (int64_t i = 0; i < rows; ++i)
                std::copy(head_out.rowPtr(i), head_out.rowPtr(i) + dh,
                          ws.attention.rowPtr(i) + head * dh);
        }
    });
}

Tensor<Half>
runEncoderLayer(const ExecContext &ctx,
                const FunctionalLayerConfig &config,
                const EncoderLayerWeights &weights,
                const Tensor<Half> &input)
{
    SOFTREC_ASSERT(input.shape().rank() == 2 &&
                   input.shape().dim(1) == config.dModel,
                   "input must be [L, dModel]");
    SOFTREC_ASSERT(config.dModel % config.numHeads == 0,
                   "heads must divide dModel");
    // Time-only summary scope around the whole layer.
    prof::Scope scope(ctx, "layer.encoder");
    LayerWorkspace ws;
    ws.x = input;
    runLayer(ctx, weights, ws, [&] {
        attendHeads(ctx, config, ws, ws.k, ws.v, ws.k.shape().dim(0));
    });
    return std::move(ws.x);
}

} // namespace softrec

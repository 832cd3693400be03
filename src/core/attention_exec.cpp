/**
 * @file
 * Functional attention executor implementation.
 */

#include "core/attention_exec.hpp"

#include <cmath>
#include <limits>
#include <vector>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "common/profiler.hpp"
#include "kernels/bsr_gemm.hpp"
#include "kernels/bsr_softmax.hpp"
#include "kernels/softmax_kernels.hpp"
#include "kernels/streaming_attention.hpp"

namespace softrec {

namespace {

constexpr double kNegInfD = -std::numeric_limits<double>::infinity();

} // namespace

AttentionInputs
makeAttentionInputs(const SdaConfig &config)
{
    AttentionInputs inputs{
        Tensor<Half>(Shape({config.seqLen, config.dHead})),
        Tensor<Half>(Shape({config.keyLen(), config.dHead})),
        Tensor<Half>(Shape({config.keyLen(), config.dHead})),
    };
    return inputs;
}

namespace {

Tensor<Half>
runDense(const ExecContext &ctx, const SdaConfig &config,
         const AttentionInputs &inputs, Strategy strategy)
{
    const int64_t L = config.seqLen;
    const int64_t kv = config.keyLen();
    const int64_t dh = config.dHead;

    GemmTiling tiling = config.attnTiling;
    if (strategy == Strategy::Fused)
        tiling.tileN = config.subVector;

    GemmDesc qk;
    qk.name = "sda.qk";
    qk.m = L;
    qk.n = kv;
    qk.k = dh;
    qk.tiling = tiling;
    qk.epilogue.scale = config.scale();
    qk.epilogue.causalMask = config.causalMask;

    GemmDesc av;
    av.name = "sda.av";
    av.m = L;
    av.n = dh;
    av.k = kv;
    av.tiling = config.attnTiling;
    // Causal P (or X') rows are zero past the diagonal; qk's mask
    // likewise skips the tiles wholly above it (see gemmRun).
    av.prologue.causalA = config.causalMask;

    GemmOperands qk_ops;
    qk_ops.a = &inputs.q;
    qk_ops.b = &inputs.k;
    qk_ops.transposeB = true;

    Tensor<Half> out(Shape({L, dh}));

    SoftmaxShape sub;
    sub.rows = L;
    sub.cols = kv;
    sub.subVector = strategy == Strategy::Fused ? tiling.tileN
                                                : config.subVector;
    const Shape md_shape({L, sub.numSubVectors()});

    switch (strategy) {
      case Strategy::Baseline: {
        Tensor<Half> scores(Shape({L, kv}));
        gemmRun(ctx, qk, qk_ops, scores);
        Tensor<Half> probs(Shape({L, kv}));
        SoftmaxShape softmax;
        softmax.rows = L;
        softmax.cols = kv;
        softmax.causal = config.causalMask;
        rowSoftmaxRun(ctx, softmax, scores, probs);
        GemmOperands av_ops;
        av_ops.a = &probs;
        av_ops.b = &inputs.v;
        gemmRun(ctx, av, av_ops, out);
        break;
      }
      case Strategy::Decomposed: {
        Tensor<Half> scores(Shape({L, kv}));
        gemmRun(ctx, qk, qk_ops, scores);
        Tensor<Half> x_prime(Shape({L, kv}));
        Tensor<float> local_max(md_shape);
        Tensor<float> local_sum(md_shape);
        lsRun(ctx, sub, scores, x_prime, local_max, local_sum);
        Tensor<float> recon(md_shape);
        irRun(ctx, sub, local_max, local_sum, recon);
        Tensor<Half> probs(Shape({L, kv}));
        gsRun(ctx, sub, x_prime, recon, probs);
        GemmOperands av_ops;
        av_ops.a = &probs;
        av_ops.b = &inputs.v;
        gemmRun(ctx, av, av_ops, out);
        break;
      }
      case Strategy::Fused: {
        Tensor<Half> x_prime(Shape({L, kv}));
        Tensor<float> local_max(md_shape);
        Tensor<float> local_sum(md_shape);
        qk.epilogue.localSoftmax = true;
        LsOutputs ls{&local_max, &local_sum};
        gemmRun(ctx, qk, qk_ops, x_prime, &ls);
        Tensor<float> recon(md_shape);
        irRun(ctx, sub, local_max, local_sum, recon);
        av.prologue.globalScale = true;
        av.prologue.gsSubVector = sub.subVector;
        GemmOperands av_ops;
        av_ops.a = &x_prime;
        av_ops.b = &inputs.v;
        av_ops.gsFactors = &recon;
        gemmRun(ctx, av, av_ops, out);
        break;
      }
    }
    return out;
}

Tensor<Half>
runSparse(const ExecContext &ctx, const SdaConfig &config,
          const AttentionInputs &inputs, Strategy strategy)
{
    SOFTREC_ASSERT(config.sparse(), "sparse attention needs a layout");
    const BsrLayout &layout = *config.layout;
    const int64_t L = config.seqLen;
    const int64_t dh = config.dHead;
    const size_t sub_count =
        size_t(layout.nnzBlocks() * layout.blockSize());

    BsrSddDesc qk;
    qk.layout = &layout;
    qk.dHead = dh;
    qk.scale = config.scale();

    BsrDsdDesc av;
    av.layout = &layout;
    av.dHead = dh;

    BsrSoftmaxDesc sub;
    sub.layout = &layout;

    Tensor<Half> out(Shape({L, dh}));

    switch (strategy) {
      case Strategy::Baseline: {
        BsrMatrix scores(layout);
        bsrSddRun(ctx, qk, inputs.q, inputs.k, scores);
        BsrMatrix probs(layout);
        bsrRowSoftmaxRun(ctx, sub, scores, probs);
        bsrDsdRun(ctx, av, probs, inputs.v, out);
        break;
      }
      case Strategy::Decomposed: {
        BsrMatrix scores(layout);
        bsrSddRun(ctx, qk, inputs.q, inputs.k, scores);
        BsrMatrix x_prime(layout);
        std::vector<float> local_max, local_sum;
        bsrLsRun(ctx, sub, scores, x_prime, local_max, local_sum);
        std::vector<float> recon;
        bsrIrRun(ctx, sub, local_max, local_sum, recon);
        BsrMatrix probs(layout);
        bsrGsRun(ctx, sub, x_prime, recon, probs);
        bsrDsdRun(ctx, av, probs, inputs.v, out);
        break;
      }
      case Strategy::Fused: {
        BsrMatrix x_prime(layout);
        std::vector<float> local_max(sub_count), local_sum(sub_count);
        qk.fuseLocalSoftmax = true;
        bsrSddRun(ctx, qk, inputs.q, inputs.k, x_prime, &local_max,
                  &local_sum);
        std::vector<float> recon;
        bsrIrRun(ctx, sub, local_max, local_sum, recon);
        av.fuseGlobalScale = true;
        bsrDsdRun(ctx, av, x_prime, inputs.v, out, &recon);
        break;
      }
    }
    return out;
}

/** Static scope name per strategy (prof::Scope keeps the pointer). */
const char *
attentionScopeName(Strategy strategy)
{
    switch (strategy) {
      case Strategy::Baseline:
        return "attention.baseline";
      case Strategy::Decomposed:
        return "attention.decomposed";
      case Strategy::Fused:
        return "attention.fused";
    }
    return "attention";
}

} // namespace

Tensor<Half>
runAttention(const ExecContext &ctx, const SdaConfig &config,
             const AttentionInputs &inputs, Strategy strategy)
{
    if (config.backend == AttentionBackend::Streaming) {
        if (config.sparse()) {
            fatal("SOFTREC_ATTENTION=streaming supports dense "
                  "attention only; block-sparse layouts run the "
                  "recomposed backend");
        }
        // Time-only summary scope, like the strategies below; the
        // kernel records its own traffic under "sda.stream".
        prof::Scope scope(ctx, "attention.streaming");
        StreamingAttentionDesc desc;
        desc.seqLen = config.seqLen;
        desc.kvLen = config.keyLen();
        desc.dHead = config.dHead;
        desc.causalMask = config.causalMask;
        desc.scale = config.scale();
        Tensor<Half> out(Shape({config.seqLen, config.dHead}));
        streamingAttentionRun(ctx, desc, inputs.q, inputs.k, inputs.v,
                              out);
        return out;
    }
    // Time-only summary scope; the kernels inside record their own
    // time and traffic under their individual names.
    prof::Scope scope(ctx, attentionScopeName(strategy));
    return config.sparse() ? runSparse(ctx, config, inputs, strategy)
                           : runDense(ctx, config, inputs, strategy);
}

Tensor<float>
referenceDenseAttention(const SdaConfig &config,
                        const AttentionInputs &inputs)
{
    const int64_t L = config.seqLen;
    const int64_t kv = config.keyLen();
    const int64_t dh = config.dHead;
    const double scale = config.scale();
    Tensor<float> out(Shape({L, dh}));
    std::vector<double> scores(static_cast<size_t>(kv), 0.0);
    for (int64_t i = 0; i < L; ++i) {
        for (int64_t j = 0; j < kv; ++j) {
            double s = 0.0;
            for (int64_t d = 0; d < dh; ++d) {
                s += double(float(inputs.q.at(i, d))) *
                     double(float(inputs.k.at(j, d)));
            }
            s *= scale;
            if (config.causalMask && j > i)
                s = kNegInfD;
            scores[size_t(j)] = s;
        }
        // Safe softmax in double precision.
        double m = kNegInfD;
        for (double s : scores)
            m = std::max(m, s);
        double d_sum = 0.0;
        for (double s : scores) {
            if (m != kNegInfD)
                d_sum += std::exp(s - m);
        }
        SOFTREC_CHECK(d_sum > 0.0 || m == kNegInfD,
                      "reference attention row %lld: d = %f must be "
                      "positive for an unmasked row",
                      (long long)i, d_sum);
        for (int64_t d = 0; d < dh; ++d) {
            double acc = 0.0;
            for (int64_t j = 0; j < kv; ++j) {
                const double p = d_sum > 0.0
                    ? std::exp(scores[size_t(j)] - m) / d_sum
                    : 0.0;
                acc += p * double(float(inputs.v.at(j, d)));
            }
            out.at(i, d) = float(acc);
        }
    }
    if constexpr (kCheckedBuild)
        checkFinite(out, "reference attention output");
    return out;
}

Tensor<float>
referenceSparseAttention(const SdaConfig &config,
                         const AttentionInputs &inputs)
{
    SOFTREC_ASSERT(config.sparse(), "sparse reference needs a layout");
    const BsrLayout &layout = *config.layout;
    const int64_t L = config.seqLen;
    const int64_t dh = config.dHead;
    const int64_t bs = layout.blockSize();
    const double scale = config.scale();
    Tensor<float> out(Shape({L, dh}));

    for (int64_t i = 0; i < L; ++i) {
        const int64_t br = i / bs;
        // Collect the row's non-masked column positions.
        std::vector<int64_t> cols;
        for (int64_t k = layout.rowBegin(br); k < layout.rowEnd(br);
             ++k) {
            const int64_t bc = layout.blockCol(k);
            for (int64_t j = 0; j < bs; ++j)
                cols.push_back(bc * bs + j);
        }
        std::vector<double> scores(cols.size());
        for (size_t c = 0; c < cols.size(); ++c) {
            double s = 0.0;
            for (int64_t d = 0; d < dh; ++d) {
                s += double(float(inputs.q.at(i, d))) *
                     double(float(inputs.k.at(cols[c], d)));
            }
            scores[c] = s * scale;
        }
        double m = kNegInfD;
        for (double s : scores)
            m = std::max(m, s);
        double d_sum = 0.0;
        for (double s : scores) {
            if (m != kNegInfD)
                d_sum += std::exp(s - m);
        }
        SOFTREC_CHECK(d_sum > 0.0 || m == kNegInfD,
                      "sparse reference row %lld: d = %f must be "
                      "positive for an unmasked row",
                      (long long)i, d_sum);
        for (int64_t d = 0; d < dh; ++d) {
            double acc = 0.0;
            for (size_t c = 0; c < cols.size(); ++c) {
                const double p = d_sum > 0.0
                    ? std::exp(scores[c] - m) / d_sum
                    : 0.0;
                acc += p * double(float(inputs.v.at(cols[c], d)));
            }
            out.at(i, d) = float(acc);
        }
    }
    if constexpr (kCheckedBuild)
        checkFinite(out, "sparse reference output");
    return out;
}

} // namespace softrec

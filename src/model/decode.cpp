/**
 * @file
 * Generation (prefill + decode) implementation.
 */

#include "model/decode.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.hpp"
#include "common/profiler.hpp"
#include "kernels/decode_attention.hpp"
#include "kernels/elementwise.hpp"
#include "kernels/gemm.hpp"
#include "kernels/kernel_common.hpp"
#include "kernels/softmax_kernels.hpp"
#include "kernels/streaming_attention.hpp"

namespace softrec {

std::vector<KernelProfile>
buildDecodeStep(const GpuSpec &spec, const ModelConfig &model,
                int64_t batch, int64_t context)
{
    SOFTREC_ASSERT(context > 0 && batch > 0, "empty decode step");
    const int64_t dm = model.dModel;
    std::vector<KernelProfile> step;

    auto add_gemv = [&](const std::string &name, KernelCategory cat,
                        int64_t n, int64_t k) {
        // One token per sequence: a GEMV, not a GEMM. Real libraries
        // launch one thread block per slice of output rows so the
        // N x K weight matrix streams from DRAM at full rate; tensor
        // cores are useless at M = 1.
        KernelProfile prof;
        prof.name = name;
        prof.category = cat;
        const uint64_t weight_bytes = uint64_t(n * k) * kFp16Bytes;
        prof.geom.numBlocks =
            std::max<int64_t>(1, int64_t(weight_bytes) / 4096);
        prof.geom.block.threads = 256;
        prof.geom.block.regsPerThread = 32;
        prof.dramReadBytes =
            weight_bytes + uint64_t(batch * k) * kFp16Bytes +
            uint64_t(n) * kFp32Bytes; // weights + x + bias
        prof.dramWriteBytes = uint64_t(batch * n) * kFp16Bytes;
        prof.cudaFlops = 2.0 * double(batch) * double(n) * double(k);
        step.push_back(prof);
    };

    add_gemv("dec.fc.q", KernelCategory::Fc, dm, dm);
    add_gemv("dec.fc.k", KernelCategory::Fc, dm, dm);
    add_gemv("dec.fc.v", KernelCategory::Fc, dm, dm);

    // Attention over the KV cache: per head, a 1 x C score row, its
    // softmax, and the 1 x C times C x dHead reduction. All three are
    // bound by streaming the K and V cache (C x D_m fp16 each).
    {
        // Flash-decoding style: each head's 1 x C reduction is split
        // across context chunks so the cache streams at full rate.
        KernelProfile attn;
        attn.name = "dec.attn";
        attn.category = KernelCategory::SdaMatMul;
        attn.geom.numBlocks =
            batch * model.numHeads * ceilDiv(context, 256);
        attn.geom.block.threads = 256;
        attn.geom.block.smemBytes =
            uint64_t(context) * kFp32Bytes; // score row staging
        attn.geom.block.regsPerThread = 64;
        const uint64_t cache_bytes =
            uint64_t(2 * batch * context * dm) * kFp16Bytes;
        attn.dramReadBytes =
            cache_bytes + uint64_t(batch * dm) * kFp16Bytes;
        attn.dramWriteBytes = uint64_t(batch * dm) * kFp16Bytes;
        attn.cudaFlops = 4.0 * double(batch) * double(context) *
                         double(dm);
        attn.sfuOps =
            double(batch * model.numHeads) * double(context);
        step.push_back(attn);
    }

    add_gemv("dec.fc.out", KernelCategory::Fc, dm, dm);
    step.push_back(
        residualAddProfile(spec, "dec.mha.residual", batch * dm));
    step.push_back(layerNormProfile(spec, "dec.mha.ln", batch, dm));
    add_gemv("dec.ff.1", KernelCategory::FeedForward, model.dFf, dm);
    add_gemv("dec.ff.2", KernelCategory::FeedForward, dm, model.dFf);
    step.push_back(
        residualAddProfile(spec, "dec.ff.residual", batch * dm));
    step.push_back(layerNormProfile(spec, "dec.ff.ln", batch, dm));
    return step;
}

DecodeResult
runGeneration(const GpuSpec &spec, const ModelConfig &model,
              const DecodeRun &run)
{
    SOFTREC_ASSERT(model.causalMask,
                   "generation needs a causal (decoder-only) model");
    SOFTREC_ASSERT(run.promptLen > 0 && run.generateTokens >= 0,
                   "empty generation request");

    DecodeResult result;

    // Prefill: the full-context forward pass the paper evaluates.
    RunConfig prefill;
    prefill.seqLen = run.promptLen;
    prefill.batch = run.batch;
    prefill.strategy = run.prefillStrategy;
    const InferenceResult prefill_result =
        runInference(spec, model, prefill);
    result.prefillSeconds = prefill_result.seconds;
    result.prefillBytes = prefill_result.dramBytes();
    result.kernelLaunches = prefill_result.kernelLaunches;

    // Decode: one token at a time over the growing cache.
    Gpu gpu(spec);
    for (int64_t t = 0; t < run.generateTokens; ++t) {
        const int64_t context = run.promptLen + t + 1;
        const auto step =
            buildDecodeStep(spec, model, run.batch, context);
        for (int64_t layer = 0; layer < model.numLayers; ++layer)
            for (const KernelProfile &prof : step)
                gpu.launch(prof);
    }
    result.decodeSeconds = gpu.totalSeconds();
    result.decodeBytes = gpu.totalDramBytes();
    result.kernelLaunches += int64_t(gpu.timeline().size());
    return result;
}

namespace {

/** The functional KV path supports exactly this attention shape. */
void
checkFunctionalStack(const DecoderStack &stack)
{
    SOFTREC_ASSERT(stack.config.causalMask,
                   "KV-cached decode needs a causal stack");
    SOFTREC_ASSERT(stack.config.layout == nullptr &&
                   stack.config.strategy == Strategy::Baseline,
                   "the decode bit-identity contract covers dense "
                   "Baseline-strategy attention only (recomposed or "
                   "streaming backend)");
    SOFTREC_ASSERT(!stack.layers.empty(),
                   "decoder stack has no layers");
    SOFTREC_ASSERT(stack.config.dModel % stack.config.numHeads == 0,
                   "heads must divide dModel");
}

/** The cached K and V rows one query row attends over. */
struct KvViews
{
    KvRowsView k, v;
};

/**
 * The attention step of chunked prefill and decode: row r of ws.q
 * attends, head by head, over the K/V rows `views(r)` returns,
 * through the decode kernel of the stack's attention backend.
 */
template <typename RowViews>
void
attendRows(const ExecContext &ctx, const FunctionalLayerConfig &config,
           DecodeStepWorkspace &ws, const RowViews &views)
{
    const int64_t rows = ws.q.shape().dim(0);
    const int64_t heads = config.numHeads;
    const int64_t dh = config.dHead();
    DecodeAttendDesc attend;
    attend.dHead = dh;
    attend.scale = 1.0 / std::sqrt(double(dh));
    // The streaming variant is bit-identical to streaming-prefill
    // rows, so the KV-equivalence contract holds per backend.
    const auto attend_row =
        config.attention == AttentionBackend::Streaming
            ? decodeAttendStreamRun
            : decodeAttendRun;

    // (row, head) attention problems are independent, writing
    // disjoint output slices; grain 1 mirrors the encoder layer's
    // per-head parallelism. Staging buffers come from the
    // per-worker-slot pool: chunks on the same worker run
    // sequentially, so the slot's workspace is never shared, and its
    // contents are dead between calls.
    parallelFor(ctx, 0, rows * heads, 1, [&](int64_t i0, int64_t i1) {
        DecodeAttendWorkspace &attend_ws =
            ws.attend[size_t(currentThreadSlot())];
        for (int64_t i = i0; i < i1; ++i) {
            const int64_t r = i / heads;
            const int64_t h = i % heads;
            DecodeAttendDesc head = attend;
            head.headOffset = h * dh;
            const KvViews kv = views(r);
            attend_row(ctx, head, ws.q.rowPtr(r) + h * dh, kv.k, kv.v,
                       ws.attention.rowPtr(r) + h * dh, &attend_ws);
        }
    });
}

} // namespace

DecoderStack
DecoderStack::random(int64_t d_model, int64_t num_heads, int64_t d_ff,
                     int64_t num_layers, Rng &rng)
{
    SOFTREC_ASSERT(num_layers > 0, "stack needs at least one layer");
    DecoderStack stack;
    stack.config.dModel = d_model;
    stack.config.numHeads = num_heads;
    stack.config.dFf = d_ff;
    stack.config.causalMask = true;
    stack.config.attention = attentionBackendFromEnv();
    stack.layers.reserve(size_t(num_layers));
    for (int64_t l = 0; l < num_layers; ++l)
        stack.layers.push_back(
            EncoderLayerWeights::random(d_model, d_ff, rng));
    return stack;
}

Tensor<Half>
runPrefill(const ExecContext &ctx, const DecoderStack &stack,
           const Tensor<Half> &prompt, KvCache &cache)
{
    checkFunctionalStack(stack);
    SOFTREC_ASSERT(prompt.shape().rank() == 2 &&
                   prompt.shape().dim(0) >= 1 &&
                   prompt.shape().dim(1) == stack.config.dModel,
                   "prompt must be [tokens, dModel]");
    SOFTREC_ASSERT(cache.numLayers() == int64_t(stack.layers.size()) &&
                   cache.context() == 0,
                   "prefill needs an empty cache sized for the stack");
    const int64_t tokens = prompt.shape().dim(0);

    prof::Scope scope(ctx, "decode.prefill");
    Tensor<Half> x = prompt;
    for (size_t l = 0; l < stack.layers.size(); ++l) {
        // Free the layer's buffers before the cache appends: cache
        // blocks allocated while they are live sit above them in the
        // heap and keep the allocator from returning them, which
        // raises a long prompt's peak RSS.
        Tensor<Half> k, v;
        {
            LayerWorkspace ws;
            ws.x = std::move(x);
            runEncoderLayerInto(ctx, stack.config, stack.layers[l], ws);
            x = std::move(ws.x);
            k = std::move(ws.k);
            v = std::move(ws.v);
        }
        for (int64_t i = 0; i < tokens; ++i)
            cache.appendRow(int64_t(l), k.rowPtr(i), v.rowPtr(i));
    }
    return x;
}

void
PrefillState::prepare(const DecoderStack &stack,
                      int64_t prompt_tokens)
{
    SOFTREC_ASSERT(prompt_tokens >= 1,
                   "prefill needs at least one prompt row");
    const size_t num_layers = stack.layers.size();
    const Shape staged({prompt_tokens, stack.config.dModel});
    promptTokens = prompt_tokens;
    rowsDone = 0;
    k.resize(num_layers);
    v.resize(num_layers);
    kBlock.resize(num_layers);
    vBlock.resize(num_layers);
    for (size_t l = 0; l < num_layers; ++l) {
        k[l].resize(staged);
        v[l].resize(staged);
        kBlock[l] = reinterpret_cast<const std::byte *>(k[l].data());
        vBlock[l] = reinterpret_cast<const std::byte *>(v[l].data());
    }
}

void
runPrefill(const ExecContext &ctx, const DecoderStack &stack,
           const Tensor<Half> &prompt, int64_t rows, KvCache &cache,
           PrefillState &state, DecodeStepWorkspace &ws,
           Tensor<Half> &outputs)
{
    checkFunctionalStack(stack);
    const int64_t dm = stack.config.dModel;
    SOFTREC_ASSERT(prompt.shape().rank() == 2 &&
                       prompt.shape().dim(0) == state.promptTokens &&
                       prompt.shape().dim(1) == dm,
                   "prompt must be [promptTokens, dModel] and match "
                   "the prepared state");
    SOFTREC_ASSERT(state.k.size() == stack.layers.size() &&
                       state.k[0].shape().dim(1) == dm,
                   "prefill state must be prepared for this stack "
                   "(%lld layers of width %lld)",
                   (long long)stack.layers.size(), (long long)dm);
    SOFTREC_ASSERT(rows >= 1 &&
                       state.rowsDone + rows <= state.promptTokens,
                   "chunk of %lld rows does not fit: %lld of %lld "
                   "prompt rows done",
                   (long long)rows, (long long)state.rowsDone,
                   (long long)state.promptTokens);
    SOFTREC_ASSERT(cache.numLayers() == int64_t(stack.layers.size()) &&
                       cache.context() == state.rowsDone,
                   "cache context (%lld) must equal the rows already "
                   "prefilled (%lld)",
                   (long long)cache.context(),
                   (long long)state.rowsDone);

    prof::Scope scope(ctx, "decode.prefill");
    const int64_t c0 = state.rowsDone;
    ws.prepare(stack, rows);
    std::copy(prompt.rowPtr(c0), prompt.rowPtr(c0) + rows * dm,
              ws.x.data());
    for (size_t l = 0; l < stack.layers.size(); ++l) {
        runLayer(ctx, stack.layers[l], ws, [&] {
            // Stage the exact fp16 rows for this chunk's attention
            // reads and append the same rows to the cache,
            // row-ascending — the order the one-shot prefill appends
            // in, so a quantized cache makes identical per-block
            // decisions.
            std::copy(ws.k.data(), ws.k.data() + rows * dm,
                      state.k[l].rowPtr(c0));
            std::copy(ws.v.data(), ws.v.data() + rows * dm,
                      state.v[l].rowPtr(c0));
            for (int64_t r = 0; r < rows; ++r)
                cache.appendRow(int64_t(l), ws.k.rowPtr(r),
                                ws.v.rowPtr(r));
            // Each row attends causally over the exact staged prefix
            // [0, c0 + r].
            attendRows(ctx, stack.config, ws, [&](int64_t r) {
                return KvViews{
                    contiguousKvView(&state.kBlock[l], state.promptTokens,
                                     dm, c0 + r + 1),
                    contiguousKvView(&state.vBlock[l], state.promptTokens,
                                     dm, c0 + r + 1)};
            });
        });
    }
    state.rowsDone += rows;
    std::swap(outputs, ws.x);
}

void
DecodeStepWorkspace::prepare(const DecoderStack &stack, int64_t rows)
{
    prepareAttention(rows, stack.config.dModel);
    prepareFeedForward(rows, stack.config.dModel, stack.config.dFf);
    if (int64_t(attend.size()) < int64_t(maxThreadSlots()))
        attend.resize(size_t(maxThreadSlots()));
}

void
runDecodeStepInto(const ExecContext &ctx, const DecoderStack &stack,
                  const Tensor<Half> &inputs,
                  const std::vector<KvCache *> &caches,
                  DecodeStepWorkspace &ws, Tensor<Half> &outputs)
{
    checkFunctionalStack(stack);
    const int64_t rows = inputs.shape().dim(0);
    SOFTREC_ASSERT(inputs.shape().rank() == 2 &&
                   inputs.shape().dim(1) == stack.config.dModel &&
                   rows >= 1,
                   "decode inputs must be [R, dModel]");
    SOFTREC_ASSERT(int64_t(caches.size()) == rows,
                   "one KvCache per batch row (%lld != %lld)",
                   (long long)caches.size(), (long long)rows);
    for (const KvCache *cache : caches)
        SOFTREC_ASSERT(cache != nullptr &&
                       cache->numLayers() ==
                           int64_t(stack.layers.size()) &&
                       cache->context() >= 1,
                       "decode needs prefilled caches");

    prof::Scope scope(ctx, "decode.step");
    ws.prepare(stack, rows);
    std::copy(inputs.data(), inputs.data() + inputs.numel(),
              ws.x.data());
    for (size_t l = 0; l < stack.layers.size(); ++l) {
        runLayer(ctx, stack.layers[l], ws, [&] {
            for (int64_t r = 0; r < rows; ++r)
                caches[size_t(r)]->appendRow(int64_t(l), ws.k.rowPtr(r),
                                             ws.v.rowPtr(r));
            attendRows(ctx, stack.config, ws, [&](int64_t r) {
                const KvCache &cache = *caches[size_t(r)];
                return KvViews{cache.kView(int64_t(l)),
                               cache.vView(int64_t(l))};
            });
        });
    }
    // Hand the result storage to the caller and keep its old buffer
    // as next step's scratch — no copy, no allocation.
    std::swap(outputs, ws.x);
}

} // namespace softrec

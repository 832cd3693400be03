/**
 * @file
 * Functional KV-cached decode implementation.
 */

#include "model/decode.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.hpp"
#include "common/profiler.hpp"
#include "kernels/decode_attention.hpp"
#include "kernels/streaming_attention.hpp"

namespace softrec {

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

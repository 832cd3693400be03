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

/**
 * The attention step of the decode step: row r of ws.q attends, head
 * by head, over request r's cached layer-`layer` K/V rows through
 * the decode kernel of the stack's attention backend.
 */
void
attendRows(const ExecContext &ctx, const FunctionalLayerConfig &config,
           DecodeStepWorkspace &ws, const std::vector<KvCache *> &caches,
           int64_t layer)
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
    // per-worker-slot pool: rows on the same worker run
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
            const KvCache &cache = *caches[size_t(r)];
            attend_row(ctx, head, ws.q.rowPtr(r) + h * dh,
                       cache.kView(layer), cache.vView(layer),
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

void
PrefillState::prepare(const DecoderStack &stack,
                      int64_t prompt_tokens)
{
    SOFTREC_ASSERT(prompt_tokens >= 1,
                   "prefill needs at least one prompt row");
    promptTokens = prompt_tokens;
    rowsDone = 0;
    numLayers = int64_t(stack.layers.size());
    dModel = stack.config.dModel;
    k.clear();
    v.clear();
}

void
runPrefill(const ExecContext &ctx, const DecoderStack &stack,
           const Tensor<Half> &prompt, int64_t rows, KvCache &cache,
           PrefillState &state, Tensor<Half> &outputs)
{
    checkFunctionalStack(stack);
    const int64_t dm = stack.config.dModel;
    const int64_t num_layers = int64_t(stack.layers.size());
    SOFTREC_ASSERT(prompt.shape().rank() == 2 &&
                       prompt.shape().dim(0) == state.promptTokens &&
                       prompt.shape().dim(1) == dm,
                   "prompt must be [promptTokens, dModel] and match "
                   "the prepared state");
    SOFTREC_ASSERT(state.numLayers == num_layers && state.dModel == dm,
                   "prefill state must be prepared for this stack "
                   "(%lld layers of width %lld, not %lld of %lld)",
                   (long long)num_layers, (long long)dm,
                   (long long)state.numLayers, (long long)state.dModel);
    SOFTREC_ASSERT(rows >= 1 &&
                       state.rowsDone + rows <= state.promptTokens,
                   "chunk of %lld rows does not fit: %lld of %lld "
                   "prompt rows done",
                   (long long)rows, (long long)state.rowsDone,
                   (long long)state.promptTokens);
    SOFTREC_ASSERT(cache.numLayers() == num_layers &&
                       cache.context() == state.rowsDone,
                   "cache context (%lld) must equal the rows already "
                   "prefilled (%lld)",
                   (long long)cache.context(),
                   (long long)state.rowsDone);

    prof::Scope scope(ctx, "decode.prefill");
    const int64_t c0 = state.rowsDone;
    const int64_t kv_len = c0 + rows;
    // Later chunks read this chunk's exact K/V rows from the staging;
    // the first chunk that leaves rows for later allocates it.
    if (state.k.empty() && kv_len < state.promptTokens) {
        const Shape staged({state.promptTokens, dm});
        state.k.assign(size_t(num_layers), Tensor<Half>(staged));
        state.v.assign(size_t(num_layers), Tensor<Half>(staged));
    }
    Tensor<Half> x(Shape({rows, dm}));
    std::copy(prompt.rowPtr(c0), prompt.rowPtr(c0) + rows * dm,
              x.data());
    for (size_t l = 0; l < stack.layers.size(); ++l) {
        // Free the layer's buffers before the cache appends: cache
        // blocks allocated while they are live sit above them in the
        // heap and keep the allocator from returning them, which
        // raises a long prompt's peak RSS.
        Tensor<Half> k, v;
        {
            LayerWorkspace ws;
            ws.x = std::move(x);
            runLayer(ctx, stack.layers[l], ws, [&] {
                // Rows [c0, c0 + rows) attend causally over the exact
                // prefix [0, c0 + rows): staged, or this chunk alone.
                const bool staged = !state.k.empty();
                if (staged) {
                    std::copy(ws.k.data(), ws.k.data() + rows * dm,
                              state.k[l].rowPtr(c0));
                    std::copy(ws.v.data(), ws.v.data() + rows * dm,
                              state.v[l].rowPtr(c0));
                }
                attendHeads(ctx, stack.config, ws,
                            staged ? state.k[l] : ws.k,
                            staged ? state.v[l] : ws.v, kv_len);
            });
            x = std::move(ws.x);
            k = std::move(ws.k);
            v = std::move(ws.v);
        }
        // Row-ascending per layer, for every chunk split: a quantized
        // cache makes identical per-block decisions.
        for (int64_t i = 0; i < rows; ++i)
            cache.appendRow(int64_t(l), k.rowPtr(i), v.rowPtr(i));
    }
    state.rowsDone += rows;
    outputs = std::move(x);
}

Tensor<Half>
runPrefill(const ExecContext &ctx, const DecoderStack &stack,
           const Tensor<Half> &prompt, KvCache &cache)
{
    PrefillState state;
    state.prepare(stack, prompt.shape().dim(0));
    Tensor<Half> out;
    runPrefill(ctx, stack, prompt, state.promptTokens, cache, state,
               out);
    return out;
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
            attendRows(ctx, stack.config, ws, caches, int64_t(l));
        });
    }
    // Hand the result storage to the caller and keep its old buffer
    // as next step's scratch — no copy, no allocation.
    std::swap(outputs, ws.x);
}

} // namespace softrec

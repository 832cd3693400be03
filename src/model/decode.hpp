/**
 * @file
 * The functional KV-cached decoder (DecoderStack, runPrefill,
 * runDecodeStepInto): prefill and one-token decode steps computed on
 * the CPU for the serving engine, bit-identical to recomputing the
 * full prefix through runEncoderLayer at every step. The simulated
 * generation study on the GPU model lives in model/generation.
 */

#ifndef SOFTREC_MODEL_DECODE_HPP
#define SOFTREC_MODEL_DECODE_HPP

#include <vector>

#include "kernels/decode_attention.hpp"
#include "model/functional_layer.hpp"
#include "serve/kv_cache.hpp"

namespace softrec {

/**
 * A functional decoder-only model: a causal FunctionalLayerConfig
 * plus one EncoderLayerWeights per layer, executed for real on the
 * CPU. The serving engine runs these; the bit-identity contract
 * (incremental decode == full-prefix recompute at every step) holds
 * per attention backend and requires dense Baseline-strategy
 * attention, which runPrefill/runDecodeStepInto assert.
 */
struct DecoderStack
{
    FunctionalLayerConfig config;
    std::vector<EncoderLayerWeights> layers;

    /**
     * Randomly initialized stack with a causal dense config. The
     * attention backend is seeded from SOFTREC_ATTENTION
     * (hard-erroring on invalid values), so serving stacks follow the
     * environment knob without per-call-site plumbing.
     */
    static DecoderStack random(int64_t d_model, int64_t num_heads,
                               int64_t d_ff, int64_t num_layers,
                               Rng &rng);
};

/**
 * Resumable-prefill progress for one request: how many prompt rows
 * have been processed, the stack shape it was prepared for, plus
 * per-layer staging of the *exact* fp16 K/V rows produced so far.
 *
 * The staging exists for bit-identity: one-chunk prefill attends
 * over the projection outputs directly, before the KV cache stores
 * them — so on a quantized cache a later chunk must not read earlier
 * rows back through the cache (that would fold the quantization
 * error of its own prompt into the prefill math). The first chunk
 * that leaves rows for later allocates the staging; a prompt that
 * lands in one chunk stages nothing.
 */
struct PrefillState
{
    int64_t promptTokens = 0; //!< total prompt rows
    int64_t rowsDone = 0;     //!< rows already processed
    int64_t numLayers = 0;    //!< layers of the prepared-for stack
    int64_t dModel = 0;       //!< width of the prepared-for stack
    //! Exact fp16 K/V rows per layer, [promptTokens, dModel], or none.
    std::vector<Tensor<Half>> k, v;

    /** Reset progress to row 0 of a prompt for `stack`. */
    void prepare(const DecoderStack &stack, int64_t prompt_tokens);
    /** True once every prompt row has been processed. */
    bool
    done() const
    {
        return rowsDone == promptTokens;
    }
};

/**
 * Step-lifetime buffers for runDecodeStepInto: the shared layer
 * body's buffers plus one DecodeAttendWorkspace per worker slot for
 * the per-(row, head) attention. A serving loop keeps one of these
 * across its whole drain; after the buffers reach their high-water
 * shape (max batch rows, max context), stepping allocates nothing.
 */
struct DecodeStepWorkspace : LayerWorkspace
{
    //! One attention staging workspace per worker slot, indexed by
    //! ExecContext::currentThreadSlot() inside the head loop.
    std::vector<DecodeAttendWorkspace> attend;

    /** Size every buffer for an R-row step of `stack`. */
    void prepare(const DecoderStack &stack, int64_t rows);
};

/**
 * Process the next `rows` prompt rows of a resumable prefill:
 * rows [c0, c0 + rows), c0 = state.rowsDone, run through the stack,
 * their K/V land in `cache` (and in `state`'s exact staging when
 * rows remain for later chunks), and `outputs` receives the stack
 * output for exactly those rows ([rows, dModel]). After the final
 * chunk the last output row is the first decode input.
 *
 * This is the only prefill body. Its attention step is attendHeads
 * over the prompt prefix [0, c0 + rows), i.e. SdaConfig{seqLen =
 * rows, kvLen = c0 + rows, causalMask}. Bit-identity for every chunk
 * split: the projections are row-independent batched GEMMs; under
 * the causal offset rule, row i of the chunk does the same
 * per-element work as row c0 + i of a one-chunk prefill; the
 * post-attention stages are row-local; and cache appends happen
 * row-ascending per layer, so the stored blocks (and their
 * quantization headers) match too.
 *
 * @param rows  chunk size; 1 <= rows <= promptTokens - rowsDone
 * @param state prepared for this stack (layer count and width
 *              asserted)
 */
void runPrefill(const ExecContext &ctx, const DecoderStack &stack,
                const Tensor<Half> &prompt, int64_t rows,
                KvCache &cache, PrefillState &state,
                Tensor<Half> &outputs);

/**
 * The whole prompt as one runPrefill chunk, seeding `cache` (empty,
 * sized for the stack) with every layer's K/V rows.
 *
 * @param prompt [promptTokens, dModel] fp16
 * @return the stack's output, [promptTokens, dModel]; its last row is
 *         the input of the first decode step
 */
Tensor<Half> runPrefill(const ExecContext &ctx,
                        const DecoderStack &stack,
                        const Tensor<Half> &prompt, KvCache &cache);

/**
 * One decode step for a batch of R independent requests: row r of
 * `inputs` is request r's current token embedding and `caches[r]` its
 * KV cache. Appends each request's new K/V rows, attends over the
 * cached prefix in place (no recompute), and leaves the next token
 * embedding per request, [R, dModel], in `outputs`.
 *
 * Bit-identity: the projections run as one batched GEMM over all R
 * rows, which the packed GEMM computes row-independently, and every
 * per-request stage (cached attention, residual, LayerNorm, FF) is
 * row-local — so each row equals the last row of a full-prefix
 * recompute of that request alone, bit for bit, for any batch
 * composition, thread count, and SIMD backend. The workspace only
 * carries scratch buffers, never values across steps, so reusing it
 * cannot change results.
 *
 * @param ws      step buffers, resized (capacity-reusing) here
 * @param outputs receives the step result via buffer swap; any prior
 *                shape/contents are consumed as scratch
 */
void runDecodeStepInto(const ExecContext &ctx,
                       const DecoderStack &stack,
                       const Tensor<Half> &inputs,
                       const std::vector<KvCache *> &caches,
                       DecodeStepWorkspace &ws, Tensor<Half> &outputs);

} // namespace softrec

#endif // SOFTREC_MODEL_DECODE_HPP

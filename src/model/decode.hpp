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
 * Full-context forward pass over the prompt, seeding `cache` with
 * every layer's K/V rows for all prompt tokens. The cache must be
 * empty and sized for the stack's layer count.
 *
 * @param prompt [promptTokens, dModel] fp16
 * @return the stack's output, [promptTokens, dModel]; its last row is
 *         the input of the first decode step
 */
Tensor<Half> runPrefill(const ExecContext &ctx,
                        const DecoderStack &stack,
                        const Tensor<Half> &prompt, KvCache &cache);

/**
 * Resumable-prefill progress for one request: how many prompt rows
 * have been processed, plus per-layer staging of the *exact* fp16
 * K/V rows produced so far.
 *
 * The staging exists for bit-identity: unchunked prefill attends
 * over the projection outputs directly, before the KV cache stores
 * them — so on a quantized cache a chunk must not read earlier rows
 * back through the cache (that would fold the quantization error of
 * its own prompt into the prefill math). Chunked prefill therefore
 * attends over this exact staging and *also* appends every row to
 * the cache in the same per-layer order as the unchunked path,
 * which keeps the cache contents (including per-block quantization
 * decisions) identical too.
 */
struct PrefillState
{
    int64_t promptTokens = 0; //!< total prompt rows
    int64_t rowsDone = 0;     //!< rows already processed
    //! Exact fp16 K/V rows per layer, [promptTokens, dModel].
    std::vector<Tensor<Half>> k, v;
    //! Stable single-pseudo-block base pointers into k/v for the
    //! contiguousKvView reads (one cell per layer).
    std::vector<const std::byte *> kBlock, vBlock;

    /** Size the staging for a prompt and reset progress to row 0. */
    void prepare(const DecoderStack &stack, int64_t prompt_tokens);
    /** True once every prompt row has been processed. */
    bool
    done() const
    {
        return rowsDone == promptTokens;
    }
};

/**
 * Step-lifetime buffers for chunked runPrefill and runDecodeStepInto:
 * the shared layer body's buffers plus one DecodeAttendWorkspace per
 * worker slot for the per-(row, head) attention. A serving loop keeps
 * one of these across its whole drain; after the buffers reach their
 * high-water shape (max batch rows, max context), stepping allocates
 * nothing.
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
 * rows [state.rowsDone, state.rowsDone + rows) run through the
 * stack, their K/V land in `state`'s exact staging and in `cache`,
 * and `outputs` receives the stack output for exactly those rows
 * ([rows, dModel], via buffer swap). After the final chunk the last
 * output row is the first decode input, exactly as with the
 * one-shot overload.
 *
 * Bit-identity with the one-shot runPrefill, for every chunk split:
 * the projections are row-independent batched GEMMs; each row's
 * attention runs the decode kernel of the configured backend over
 * the exact staged prefix, which PR 8 pinned bit-identical to the
 * batch prefill row at the same position; and the post-attention
 * stages are row-local. Cache appends happen row-ascending per
 * layer, the same order as the one-shot path, so the stored blocks
 * (and their quantization headers) match bit for bit as well.
 *
 * @param rows  chunk size; 1 <= rows <= promptTokens - rowsDone
 * @param state prepared for this stack: one staging per layer, each
 *              dModel wide (asserted)
 * @param ws    step buffers reused across chunks and decode steps
 */
void runPrefill(const ExecContext &ctx, const DecoderStack &stack,
                const Tensor<Half> &prompt, int64_t rows,
                KvCache &cache, PrefillState &state,
                DecodeStepWorkspace &ws, Tensor<Half> &outputs);

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

/**
 * @file
 * Tests of the autoregressive generation study, plus the KV-cache
 * equivalence suite: incremental decode through the functional KV
 * path must be bit-identical to recomputing the full prefix at every
 * step, across thread counts and SIMD backends.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "kernels/streaming_attention.hpp"
#include "model/decode.hpp"
#include "model/functional_layer.hpp"
#include "model/generation.hpp"
#include "serve/kv_cache.hpp"
#include "sparse/patterns.hpp"

namespace softrec {
namespace {

constexpr int64_t kDm = 32;
constexpr int64_t kHeads = 2;
constexpr int64_t kDff = 48;
constexpr int64_t kLayers = 2;
constexpr int64_t kPrompt = 7;
constexpr int64_t kSteps = 5;

Tensor<Half>
randomPrompt(Rng &rng, int64_t tokens)
{
    Tensor<Half> prompt(Shape({tokens, kDm}));
    for (int64_t i = 0; i < prompt.numel(); ++i)
        prompt.data()[i] = Half(float(rng.normal(0.0, 0.5)));
    return prompt;
}

/** One decode step with a call-lifetime workspace (test-only). */
Tensor<Half>
decodeStep(const ExecContext &ctx, const DecoderStack &stack,
           const Tensor<Half> &inputs,
           const std::vector<KvCache *> &caches)
{
    DecodeStepWorkspace ws;
    Tensor<Half> outputs;
    runDecodeStepInto(ctx, stack, inputs, caches, ws, outputs);
    return outputs;
}

/** Full forward pass of the stack over `seq` (no cache). */
Tensor<Half>
fullForward(const ExecContext &ctx, const DecoderStack &stack,
            const Tensor<Half> &seq)
{
    Tensor<Half> x = seq;
    for (const EncoderLayerWeights &layer : stack.layers)
        x = runEncoderLayer(ctx, stack.config, layer, x);
    return x;
}

/** Append `row` of a [*, dm] tensor to `seq`. */
Tensor<Half>
appendRow(const Tensor<Half> &seq, const Tensor<Half> &rows,
          int64_t row)
{
    const int64_t n = seq.shape().dim(0);
    Tensor<Half> out(Shape({n + 1, seq.shape().dim(1)}));
    for (int64_t i = 0; i < n; ++i)
        for (int64_t j = 0; j < seq.shape().dim(1); ++j)
            out.at(i, j) = seq.at(i, j);
    for (int64_t j = 0; j < seq.shape().dim(1); ++j)
        out.at(n, j) = rows.at(row, j);
    return out;
}

void
expectRowBitsEqual(const Tensor<Half> &got, int64_t got_row,
                   const Tensor<Half> &want, int64_t want_row,
                   const char *what, int64_t step)
{
    for (int64_t j = 0; j < got.shape().dim(1); ++j)
        ASSERT_EQ(got.at(got_row, j).bits(),
                  want.at(want_row, j).bits())
            << what << ": step " << step << " column " << j;
}

/**
 * Drive `kSteps` incremental decode steps and assert each output row
 * is bit-identical to a full-prefix recompute of the same sequence.
 */
void
checkIncrementalMatchesRecompute(const ExecContext &ctx)
{
    Rng rng(17);
    const DecoderStack stack =
        DecoderStack::random(kDm, kHeads, kDff, kLayers, rng);
    const Tensor<Half> prompt = randomPrompt(rng, kPrompt);

    KvSlab slab(/*block_tokens=*/4, kDm);
    KvCache cache(slab, kLayers);
    const Tensor<Half> prefill_out =
        runPrefill(ctx, stack, prompt, cache);
    EXPECT_EQ(cache.context(), kPrompt);

    // The prefill itself must match a plain stack forward bit for bit.
    const Tensor<Half> plain = fullForward(ctx, stack, prompt);
    for (int64_t i = 0; i < kPrompt; ++i)
        expectRowBitsEqual(prefill_out, i, plain, i, "prefill", i);

    Tensor<Half> seq = prompt;
    Tensor<Half> input(Shape({1, kDm}));
    for (int64_t j = 0; j < kDm; ++j)
        input.at(0, j) = prefill_out.at(kPrompt - 1, j);

    for (int64_t t = 0; t < kSteps; ++t) {
        seq = appendRow(seq, input, 0);
        const Tensor<Half> decode_out =
            decodeStep(ctx, stack, input, {&cache});
        EXPECT_EQ(cache.context(), kPrompt + t + 1);

        const Tensor<Half> full = fullForward(ctx, stack, seq);
        expectRowBitsEqual(decode_out, 0, full,
                           seq.shape().dim(0) - 1, "decode", t);
        for (int64_t j = 0; j < kDm; ++j)
            input.at(0, j) = decode_out.at(0, j);
    }
}

TEST(KvEquivalence, SerialContext)
{
    checkIncrementalMatchesRecompute(ExecContext());
}

TEST(KvEquivalence, ThreadPool4)
{
    ThreadPool pool(4);
    ExecContext ctx;
    ctx.pool = &pool;
    checkIncrementalMatchesRecompute(ctx);
}

TEST(KvEquivalence, ScalarSimdBackend)
{
    const SimdBackend prev = setSimdBackend(SimdBackend::Scalar);
    checkIncrementalMatchesRecompute(ExecContext());
    setSimdBackend(prev);
}

TEST(KvEquivalence, DetectedSimdBackendThreaded)
{
    const SimdBackend prev =
        setSimdBackend(detectedSimdBackend());
    ThreadPool pool(4);
    ExecContext ctx;
    ctx.pool = &pool;
    checkIncrementalMatchesRecompute(ctx);
    setSimdBackend(prev);
}

TEST(KvEquivalence, SameBitsAcrossThreadCountsAndBackends)
{
    // Decode outputs must not depend on execution resources at all:
    // run the same generation under four (threads, backend) pairs and
    // require identical bits everywhere.
    Rng rng(23);
    const DecoderStack stack =
        DecoderStack::random(kDm, kHeads, kDff, kLayers, rng);
    const Tensor<Half> prompt = randomPrompt(rng, kPrompt);

    auto generate = [&](int threads, SimdBackend backend) {
        const SimdBackend prev = setSimdBackend(backend);
        std::vector<uint16_t> bits;
        {
            ThreadPool pool(threads);
            ExecContext ctx;
            if (threads > 1)
                ctx.pool = &pool;
            KvSlab slab(/*block_tokens=*/4, kDm);
            KvCache cache(slab, kLayers);
            const Tensor<Half> out =
                runPrefill(ctx, stack, prompt, cache);
            Tensor<Half> input(Shape({1, kDm}));
            for (int64_t j = 0; j < kDm; ++j)
                input.at(0, j) = out.at(kPrompt - 1, j);
            for (int64_t t = 0; t < kSteps; ++t) {
                input = decodeStep(ctx, stack, input, {&cache});
                for (int64_t j = 0; j < kDm; ++j)
                    bits.push_back(input.at(0, j).bits());
            }
        }
        setSimdBackend(prev);
        return bits;
    };

    const auto reference = generate(1, SimdBackend::Scalar);
    EXPECT_EQ(generate(4, SimdBackend::Scalar), reference);
    EXPECT_EQ(generate(1, detectedSimdBackend()), reference);
    EXPECT_EQ(generate(4, detectedSimdBackend()), reference);
}

TEST(KvEquivalence, PrefillCacheHoldsTheProjectedRows)
{
    Rng rng(29);
    const DecoderStack stack =
        DecoderStack::random(kDm, kHeads, kDff, kLayers, rng);
    const Tensor<Half> prompt = randomPrompt(rng, kPrompt);

    KvSlab slab(/*block_tokens=*/3, kDm);
    KvCache cache(slab, kLayers);
    runPrefill(ExecContext(), stack, prompt, cache);

    // Layer 0's cached K rows must equal the fc.k projection of the
    // prompt (the cache stores projections, not raw embeddings).
    const Tensor<Half> k = projectRows(
        ExecContext(), "fc.k", prompt, stack.layers[0].wk,
        stack.layers[0].bk);
    const KvRowsView view = cache.kView(0);
    ASSERT_EQ(view.rows, kPrompt);
    for (int64_t i = 0; i < kPrompt; ++i)
        for (int64_t j = 0; j < kDm; ++j)
            EXPECT_EQ(view.row(i)[j].bits(), k.at(i, j).bits())
                << "row " << i << " column " << j;
}

/** FNV-1a over the fp16 bit patterns of `t`, continuing from `h`. */
uint64_t
hashBits(uint64_t h, const Tensor<Half> &t)
{
    for (int64_t i = 0; i < t.numel(); ++i) {
        const uint16_t bits = t.data()[i].bits();
        for (const uint16_t byte : {uint16_t(bits & 0xffu),
                                    uint16_t(bits >> 8)}) {
            h ^= byte;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

/**
 * Hash of a serving-sized generation: the prefill output of a
 * 77-token prompt (ragged against every tile width) through a
 * d_model 256, 4-head, 2-layer stack, then 8 single-row decode steps.
 */
uint64_t
goldenGenerationHash(AttentionBackend backend)
{
    constexpr int64_t dm = 256;
    constexpr int64_t layers = 2;
    constexpr int64_t prompt_tokens = 77;
    Rng rng(1234);
    DecoderStack stack = DecoderStack::random(dm, 4, 1024, layers, rng);
    stack.config.attention = backend;
    Tensor<Half> prompt(Shape({prompt_tokens, dm}));
    for (int64_t i = 0; i < prompt.numel(); ++i)
        prompt.data()[i] = Half(float(rng.normal(0.0, 0.5)));

    const ExecContext ctx = ExecContext::fromEnv();
    KvSlab slab(/*block_tokens=*/16, dm);
    KvCache cache(slab, layers);
    const Tensor<Half> prefill = runPrefill(ctx, stack, prompt, cache);
    uint64_t h = hashBits(0xcbf29ce484222325ull, prefill);

    Tensor<Half> input(Shape({1, dm}));
    for (int64_t j = 0; j < dm; ++j)
        input.at(0, j) = prefill.at(prompt_tokens - 1, j);
    DecodeStepWorkspace ws;
    Tensor<Half> next;
    for (int step = 0; step < 8; ++step) {
        runDecodeStepInto(ctx, stack, input, {&cache}, ws, next);
        h = hashBits(h, next);
        std::swap(input, next);
    }
    return h;
}

TEST(GoldenBits, GenerationMatchesRecordedHash)
{
    // Recorded from the build before the register-blocked SIMD GEMM
    // micro-kernel replaced the scalar tile loops. Kernel changes that
    // claim "no numeric change" must keep these; any intended change
    // in numerics re-records them and says so.
    EXPECT_EQ(goldenGenerationHash(AttentionBackend::Recomposed),
              0x8cd5f100239dfd2aull);
    EXPECT_EQ(goldenGenerationHash(AttentionBackend::Streaming),
              0x1d9b074bcd535ce5ull);
}

/**
 * Hash of one encoder layer under `strategy`: d_model 64, 4 heads,
 * over a 37-row input (ragged against every tile width) for dense
 * attention, or a 48-row input (a multiple of the 16-token block)
 * for the block-sparse `layout`.
 */
uint64_t
goldenLayerHash(Strategy strategy, bool causal, const BsrLayout *layout)
{
    constexpr int64_t dm = 64;
    Rng rng(4321);
    const EncoderLayerWeights weights =
        EncoderLayerWeights::random(dm, 128, rng);
    FunctionalLayerConfig config;
    config.dModel = dm;
    config.numHeads = 4;
    config.dFf = 128;
    config.causalMask = causal;
    config.layout = layout;
    config.strategy = strategy;
    Tensor<Half> input(Shape({layout != nullptr ? 48 : 37, dm}));
    for (int64_t i = 0; i < input.numel(); ++i)
        input.data()[i] = Half(float(rng.normal(0.0, 0.5)));
    return hashBits(0xcbf29ce484222325ull,
                    runEncoderLayer(ExecContext::fromEnv(), config,
                                    weights, input));
}

TEST(GoldenBits, EncoderLayerMatchesRecordedHash)
{
    // Recorded before runEncoderLayer, the prefill and the decode step
    // were folded into one shared layer body.
    const BsrLayout layout = bigBirdPattern(48, BigBirdParams{16, 1, 1, 1, 7});
    struct Case
    {
        Strategy strategy;
        bool causal;
        const BsrLayout *layout;
        uint64_t hash;
    };
    const Case cases[] = {
        {Strategy::Baseline, false, nullptr, 0x1cfd40bbf4361c89ull},
        {Strategy::Baseline, true, nullptr, 0x104b6549f5653b5bull},
        {Strategy::Baseline, false, &layout, 0xa3f03b6fcfb74538ull},
        {Strategy::Decomposed, false, nullptr, 0xeb80278d173a0b3cull},
        {Strategy::Decomposed, true, nullptr, 0xe30f4bf7d11f487full},
        {Strategy::Decomposed, false, &layout, 0x93d23e3256014d93ull},
        {Strategy::Fused, false, nullptr, 0x5b63561275230493ull},
        {Strategy::Fused, true, nullptr, 0x74b1da878e3b4807ull},
        {Strategy::Fused, false, &layout, 0x2a7ff635923bd687ull},
    };
    for (const Case &c : cases)
        EXPECT_EQ(goldenLayerHash(c.strategy, c.causal, c.layout), c.hash)
            << strategyName(c.strategy) << " causal=" << c.causal
            << " sparse=" << (c.layout != nullptr);
}

/**
 * Hash of a chunked generation: a 77-token prompt prefilled in
 * 5-row chunks through the golden-generation stack on a `dtype` KV
 * cache, then 8 single-row decode steps.
 */
uint64_t
goldenChunkedHash(AttentionBackend backend, KvDtype dtype)
{
    constexpr int64_t dm = 256;
    constexpr int64_t layers = 2;
    constexpr int64_t prompt_tokens = 77;
    Rng rng(1234);
    DecoderStack stack = DecoderStack::random(dm, 4, 1024, layers, rng);
    stack.config.attention = backend;
    Tensor<Half> prompt(Shape({prompt_tokens, dm}));
    for (int64_t i = 0; i < prompt.numel(); ++i)
        prompt.data()[i] = Half(float(rng.normal(0.0, 0.5)));

    const ExecContext ctx = ExecContext::fromEnv();
    KvSlab slab(/*block_tokens=*/16, dm, 64, dtype);
    KvCache cache(slab, layers);
    PrefillState state;
    state.prepare(stack, prompt_tokens);
    Tensor<Half> chunk;
    uint64_t h = 0xcbf29ce484222325ull;
    while (!state.done()) {
        runPrefill(ctx, stack, prompt,
                   std::min<int64_t>(5, prompt_tokens - state.rowsDone),
                   cache, state, chunk);
        h = hashBits(h, chunk);
    }

    Tensor<Half> input(Shape({1, dm}));
    for (int64_t j = 0; j < dm; ++j)
        input.at(0, j) = chunk.at(chunk.shape().dim(0) - 1, j);
    DecodeStepWorkspace ws;
    Tensor<Half> next;
    for (int step = 0; step < 8; ++step) {
        runDecodeStepInto(ctx, stack, input, {&cache}, ws, next);
        h = hashBits(h, next);
        std::swap(input, next);
    }
    return h;
}

TEST(GoldenBits, ChunkedGenerationMatchesRecordedHash)
{
    // Recorded with the encoder-layer hashes above. The f16 hashes
    // equal the one-shot ones in GenerationMatchesRecordedHash: the
    // chunks concatenate to the one-shot prefill output bit for bit.
    EXPECT_EQ(goldenChunkedHash(AttentionBackend::Recomposed, KvDtype::F16),
              0x8cd5f100239dfd2aull);
    EXPECT_EQ(goldenChunkedHash(AttentionBackend::Recomposed, KvDtype::I8),
              0x9cc4d55baefac968ull);
    EXPECT_EQ(goldenChunkedHash(AttentionBackend::Streaming, KvDtype::F16),
              0x1d9b074bcd535ce5ull);
    EXPECT_EQ(goldenChunkedHash(AttentionBackend::Streaming, KvDtype::I8),
              0xd0851455dc5e89c3ull);
}

/**
 * Hash of non-causal cross-attention through streamingAttentionRun:
 * 100 queries over 150 keys at dHead 16, ragged against both the
 * 64-row query strip and the 64-key tile.
 */
uint64_t
goldenStreamingCrossHash()
{
    constexpr int64_t L = 100;
    constexpr int64_t kv = 150;
    constexpr int64_t dh = 16;
    Rng rng(2718);
    Tensor<Half> q(Shape({L, dh}));
    Tensor<Half> k(Shape({kv, dh}));
    Tensor<Half> v(Shape({kv, dh}));
    for (Tensor<Half> *t : {&q, &k, &v})
        for (int64_t i = 0; i < t->numel(); ++i)
            t->data()[i] = Half(float(rng.normal(0.0, 0.5)));
    StreamingAttentionDesc desc;
    desc.seqLen = L;
    desc.kvLen = kv;
    desc.dHead = dh;
    desc.scale = 0.25; // 1/sqrt(dh)
    Tensor<Half> out(Shape({L, dh}));
    streamingAttentionRun(ExecContext::fromEnv(), desc, q, k, v, out);
    return hashBits(0xcbf29ce484222325ull, out);
}

TEST(GoldenBits, StreamingCrossAttentionMatchesRecordedHash)
{
    // Recorded before the fp32 softmax steps moved into
    // kernels/softmax_row.hpp. The only streaming case that no other
    // hash pins: every other check of it is a tolerance.
    EXPECT_EQ(goldenStreamingCrossHash(), 0x5450fd1cda46b420ull);
}

TEST(DecodeStep, StructureAndWeightBoundGemvs)
{
    const GpuSpec spec = GpuSpec::a100();
    const ModelConfig model = ModelConfig::gptNeo13B();
    const auto step = buildDecodeStep(spec, model, 1, 4096);
    // 6 GEMVs + attention + 2 residuals + 2 layernorms.
    EXPECT_EQ(step.size(), 11u);
    for (const auto &prof : step) {
        if (prof.name == "dec.fc.q" || prof.name == "dec.fc.out" ||
            prof.name == "dec.ff.1" || prof.name == "dec.ff.2") {
            // Weight streaming dominates a single-token GEMV.
            EXPECT_GE(prof.dramReadBytes,
                      uint64_t(model.dModel * model.dModel) * 2)
                << prof.name;
        }
    }
}

TEST(DecodeStep, AttentionTrafficTracksContext)
{
    const GpuSpec spec = GpuSpec::a100();
    const ModelConfig model = ModelConfig::gptNeo13B();
    auto cache_read = [&](int64_t context) {
        for (const auto &prof :
             buildDecodeStep(spec, model, 1, context))
            if (prof.name == "dec.attn")
                return prof.dramReadBytes;
        return uint64_t(0);
    };
    // KV cache grows linearly with context.
    EXPECT_NEAR(double(cache_read(4096)) / double(cache_read(1024)),
                4.0, 0.1);
}

TEST(Generation, PrefillDominatedByLongPrompts)
{
    const GpuSpec spec = GpuSpec::a100();
    const ModelConfig model = ModelConfig::gptNeo13B();
    DecodeRun run;
    run.promptLen = 4096;
    run.generateTokens = 16;
    const DecodeResult result = runGeneration(spec, model, run);
    EXPECT_GT(result.prefillSeconds, 0.0);
    EXPECT_GT(result.decodeSeconds, 0.0);
    EXPECT_GT(result.prefillSeconds, result.decodeSeconds);
    EXPECT_GT(result.secondsPerToken(16), 0.0);
    EXPECT_DOUBLE_EQ(result.totalSeconds(),
                     result.prefillSeconds + result.decodeSeconds);
}

TEST(Generation, RecompositionAcceleratesOnlyThePrefill)
{
    const GpuSpec spec = GpuSpec::a100();
    const ModelConfig model = ModelConfig::gptNeo13B();
    DecodeRun run;
    run.promptLen = 4096;
    run.generateTokens = 8;
    run.prefillStrategy = Strategy::Baseline;
    const DecodeResult base = runGeneration(spec, model, run);
    run.prefillStrategy = Strategy::Fused;
    const DecodeResult sdf = runGeneration(spec, model, run);
    EXPECT_LT(sdf.prefillSeconds, base.prefillSeconds);
    // Decode is strategy-independent (1 x C attention rows).
    EXPECT_DOUBLE_EQ(sdf.decodeSeconds, base.decodeSeconds);
}

TEST(Generation, NonCausalModelRejected)
{
    DecodeRun run;
    EXPECT_THROW(runGeneration(GpuSpec::a100(),
                               ModelConfig::bertLarge(), run),
                 std::logic_error);
}

TEST(Generation, PerTokenLatencyGrowsWithContext)
{
    const GpuSpec spec = GpuSpec::a100();
    const ModelConfig model = ModelConfig::gptNeo13B();
    Gpu gpu(spec);
    auto step_seconds = [&](int64_t context) {
        gpu.reset();
        for (const auto &prof :
             buildDecodeStep(spec, model, 1, context))
            gpu.launch(prof);
        return gpu.totalSeconds();
    };
    EXPECT_GT(step_seconds(8192), step_seconds(1024));
}

} // namespace
} // namespace softrec

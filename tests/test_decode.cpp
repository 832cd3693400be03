/**
 * @file
 * Tests of the autoregressive generation study, plus the KV-cache
 * equivalence suite: incremental decode through the functional KV
 * path must be bit-identical to recomputing the full prefix at every
 * step, across thread counts and SIMD backends. The DecodeKernels
 * cases pin both decode kernels to the per-position loop they
 * replaced, over ragged block sizes and contexts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/profiler.hpp"
#include "common/rng.hpp"
#include "kernels/softmax_row.hpp"
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
 * Drive `steps` incremental decode steps after a `prompt_tokens`
 * prefill into blocks of `block_tokens`, and assert each output row
 * is bit-identical to a full-prefix recompute of the same sequence.
 */
void
checkIncrementalMatchesRecompute(const ExecContext &ctx,
                                 int64_t block_tokens = 4,
                                 int64_t prompt_tokens = kPrompt,
                                 int64_t steps = kSteps)
{
    Rng rng(17);
    const DecoderStack stack =
        DecoderStack::random(kDm, kHeads, kDff, kLayers, rng);
    const Tensor<Half> prompt = randomPrompt(rng, prompt_tokens);

    KvSlab slab(block_tokens, kDm);
    KvCache cache(slab, kLayers);
    const Tensor<Half> prefill_out =
        runPrefill(ctx, stack, prompt, cache);
    EXPECT_EQ(cache.context(), prompt_tokens);

    // The prefill itself must match a plain stack forward bit for bit.
    const Tensor<Half> plain = fullForward(ctx, stack, prompt);
    for (int64_t i = 0; i < prompt_tokens; ++i)
        expectRowBitsEqual(prefill_out, i, plain, i, "prefill", i);

    Tensor<Half> seq = prompt;
    Tensor<Half> input(Shape({1, kDm}));
    for (int64_t j = 0; j < kDm; ++j)
        input.at(0, j) = prefill_out.at(prompt_tokens - 1, j);

    for (int64_t t = 0; t < steps; ++t) {
        seq = appendRow(seq, input, 0);
        const Tensor<Half> decode_out =
            decodeStep(ctx, stack, input, {&cache});
        EXPECT_EQ(cache.context(), prompt_tokens + t + 1);

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

TEST(KvEquivalence, ServingBlockSizeAcrossABlockBoundary)
{
    // The serving default kvBlockTokens = 64: a 61-token prompt and 8
    // steps fill the first block and open the second, so the decode
    // kernels run their full 64-position lane blocks and then a
    // ragged block, on both backends.
    checkIncrementalMatchesRecompute(ExecContext(), 64, 61, 8);
    const SimdBackend prev = setSimdBackend(SimdBackend::Scalar);
    checkIncrementalMatchesRecompute(ExecContext(), 64, 61, 8);
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
    std::vector<float> row(static_cast<size_t>(kDm));
    for (int64_t i = 0; i < kPrompt; ++i) {
        view.loadRow(i, 0, kDm, row.data());
        for (int64_t j = 0; j < kDm; ++j)
            EXPECT_EQ(Half(row[size_t(j)]).bits(), k.at(i, j).bits())
                << "row " << i << " column " << j;
    }
}

// --- decode kernels against the per-position loop ----------------------

/**
 * The per-position decode loop the kernels replaced, kept as their
 * oracle: each cached row read through loadRow, a scalar d-ascending
 * dot with the conditional scale, the score row through fp16, then
 * either the three-pass safe softmax and a scalar P.V sum
 * (decodeAttendRun) or kStreamKeyTile-wide tiles folded through
 * onlineFold with the 1/d epilogue (decodeAttendStreamRun).
 */
std::vector<Half>
oracleDecode(const DecodeAttendDesc &desc, const std::vector<Half> &q,
             const KvRowsView &k, const KvRowsView &v, bool streaming)
{
    const int64_t dh = desc.dHead;
    const int64_t context = k.rows;
    std::vector<float> qf(static_cast<size_t>(dh));
    std::vector<float> lane(static_cast<size_t>(dh));
    std::vector<float> row(static_cast<size_t>(context));
    halfToFloat(q.data(), qf.data(), dh);
    for (int64_t pos = 0; pos < context; ++pos) {
        k.loadRow(pos, desc.headOffset, dh, lane.data());
        float s = 0.0f;
        for (int64_t d = 0; d < dh; ++d)
            s += qf[size_t(d)] * lane[size_t(d)];
        if (desc.scale != 1.0)
            s *= float(desc.scale);
        row[size_t(pos)] = s;
    }
    std::vector<float> acc(static_cast<size_t>(dh), 0.0f);
    auto add_pv = [&](int64_t t0, int64_t n) {
        for (int64_t pos = t0; pos < t0 + n; ++pos) {
            v.loadRow(pos, desc.headOffset, dh, lane.data());
            for (int64_t d = 0; d < dh; ++d)
                acc[size_t(d)] += row[size_t(pos)] * lane[size_t(d)];
        }
    };
    std::vector<Half> out(static_cast<size_t>(dh));
    if (streaming) {
        float m = kNegInf;
        float denom = 0.0f;
        for (int64_t t0 = 0; t0 < context; t0 += kStreamKeyTile) {
            const int64_t n = std::min(kStreamKeyTile, context - t0);
            float rescale = 1.0f;
            if (!onlineFold(&row[size_t(t0)], n, m, denom, rescale))
                continue;
            for (float &a : acc)
                a *= rescale;
            add_pv(t0, n);
        }
        const float inv = 1.0f / denom;
        for (float &a : acc)
            a *= inv;
    } else {
        std::vector<Half> row_h(static_cast<size_t>(context));
        floatToHalf(row.data(), row_h.data(), context);
        halfToFloat(row_h.data(), row.data(), context);
        safeSoftmax(row.data(), context);
        floatToHalf(row.data(), row_h.data(), context);
        halfToFloat(row_h.data(), row.data(), context);
        add_pv(0, context);
    }
    floatToHalf(acc.data(), out.data(), dh);
    return out;
}

/**
 * Both decode kernels over one cache of `context` random rows (two
 * heads of `dh`) in blocks of `block_tokens`, against oracleDecode bit
 * for bit; with F16 the streaming kernel must also equal full-prefix
 * streaming (streamingAttentionRun over the same head's rows).
 */
void
checkDecodeKernelsAgainstOracle(KvDtype dtype, int64_t block_tokens,
                                int64_t context, int64_t dh,
                                DecodeAttendWorkspace &ws)
{
    const int64_t width = 2 * dh;
    KvSlab slab(block_tokens, width, 8, dtype);
    KvCache cache(slab, 1);
    Rng rng(uint64_t(1000 * context + 10 * block_tokens + dh));
    Tensor<Half> k_rows(Shape({context, width}));
    Tensor<Half> v_rows(Shape({context, width}));
    for (int64_t t = 0; t < context; ++t) {
        for (int64_t j = 0; j < width; ++j) {
            k_rows.at(t, j) = Half(float(rng.normal(0.0, 1.0)));
            v_rows.at(t, j) = Half(float(rng.normal(0.0, 1.0)));
        }
        cache.appendRow(0, k_rows.rowPtr(t), v_rows.rowPtr(t));
    }
    const KvRowsView k = cache.kView(0);
    const KvRowsView v = cache.vView(0);
    for (int64_t head = 0; head < 2; ++head) {
        DecodeAttendDesc desc;
        desc.dHead = dh;
        desc.headOffset = head * dh;
        desc.scale = dh == 64 ? 0.125 : 1.0;
        Tensor<Half> q(Shape({1, dh}));
        for (int64_t j = 0; j < dh; ++j)
            q.at(0, j) = Half(float(rng.normal(0.0, 0.5)));
        const std::vector<Half> q_row(q.data(), q.data() + dh);

        std::vector<Half> got(static_cast<size_t>(dh));
        std::vector<Half> got_stream(static_cast<size_t>(dh));
        decodeAttendRun(ExecContext(), desc, q.data(), k, v, got.data(),
                        &ws);
        decodeAttendStreamRun(ExecContext(), desc, q.data(), k, v,
                              got_stream.data(), &ws);
        const std::vector<Half> want =
            oracleDecode(desc, q_row, k, v, /*streaming=*/false);
        const std::vector<Half> want_stream =
            oracleDecode(desc, q_row, k, v, /*streaming=*/true);
        for (int64_t j = 0; j < dh; ++j) {
            ASSERT_EQ(got[size_t(j)].bits(), want[size_t(j)].bits())
                << "head " << head << " column " << j;
            ASSERT_EQ(got_stream[size_t(j)].bits(),
                      want_stream[size_t(j)].bits())
                << "streaming, head " << head << " column " << j;
        }
        if (dtype != KvDtype::F16)
            continue;
        Tensor<Half> k_head(Shape({context, dh}));
        Tensor<Half> v_head(Shape({context, dh}));
        for (int64_t t = 0; t < context; ++t)
            for (int64_t j = 0; j < dh; ++j) {
                k_head.at(t, j) = k_rows.at(t, desc.headOffset + j);
                v_head.at(t, j) = v_rows.at(t, desc.headOffset + j);
            }
        StreamingAttentionDesc full;
        full.seqLen = 1;
        full.kvLen = context;
        full.dHead = dh;
        full.scale = desc.scale;
        Tensor<Half> prefix(Shape({1, dh}));
        streamingAttentionRun(ExecContext(), full, q, k_head, v_head,
                              prefix);
        for (int64_t j = 0; j < dh; ++j)
            ASSERT_EQ(got_stream[size_t(j)].bits(), prefix.at(0, j).bits())
                << "full-prefix streaming, head " << head << " column "
                << j;
    }
}

TEST(DecodeKernels, MatchThePerPositionLoopOverRaggedBlocks)
{
    // Block sizes below, at and above the 8-lane vector and the
    // 64-position span; contexts ragged against all of them; a 20-wide
    // head (ragged P.V lanes, scale 1.0 skipped) and a 64-wide one.
    DecodeAttendWorkspace ws;
    for (const SimdBackend backend :
         {SimdBackend::Scalar, detectedSimdBackend()}) {
        const SimdBackend prev = setSimdBackend(backend);
        for (const KvDtype dtype : {KvDtype::F16, KvDtype::I8})
            for (const int64_t block_tokens : {1, 3, 8, 64})
                for (const int64_t context : {1, 7, 8, 9, 63, 64, 65, 130})
                    for (const int64_t dh : {20, 64}) {
                        SCOPED_TRACE(testing::Message()
                                     << simdBackendName(backend) << " "
                                     << kvDtypeName(dtype)
                                     << " blockTokens " << block_tokens
                                     << " context " << context
                                     << " dHead " << dh);
                        checkDecodeKernelsAgainstOracle(
                            dtype, block_tokens, context, dh, ws);
                    }
        setSimdBackend(prev);
    }
}

TEST(DecodeKernels, ScopesCreditQkAndPvFlops)
{
    // 2 * C * dHead for the scores plus 2 * C * dHead for P.V, so a
    // traced run reports the decode kernels' GFLOP/s.
    constexpr int64_t kContext = 37;
    constexpr int64_t kHead = kDm / kHeads;
    KvSlab slab(/*block_tokens=*/8, kDm);
    KvCache cache(slab, 1);
    Rng rng(31);
    const Tensor<Half> rows = randomPrompt(rng, kContext);
    for (int64_t t = 0; t < kContext; ++t)
        cache.appendRow(0, rows.rowPtr(t), rows.rowPtr(t));
    prof::Profiler profiler;
    ExecContext ctx;
    ctx.profiler = &profiler;
    DecodeAttendDesc desc;
    desc.dHead = kHead;
    std::vector<Half> out(static_cast<size_t>(kHead));
    decodeAttendRun(ctx, desc, rows.rowPtr(0), cache.kView(0),
                    cache.vView(0), out.data());
    decodeAttendStreamRun(ctx, desc, rows.rowPtr(0), cache.kView(0),
                          cache.vView(0), out.data());
    const uint64_t want = 4 * kContext * kHead;
    EXPECT_EQ(profiler.statsFor("decode.attend").flops, want);
    EXPECT_EQ(profiler.statsFor("decode.attend.stream").flops, want);
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

/**
 * @file
 * Layer-by-layer replays of the traced run.
 */

#include "layers.hpp"

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>

#include "core/attention_exec.hpp"
#include "fp16/half.hpp"
#include "kernels/decode_attention.hpp"
#include "kernels/elementwise.hpp"
#include "kernels/gemm.hpp"
#include "kernels/softmax_kernels.hpp"
#include "kernels/streaming_attention.hpp"
#include "model/decode.hpp"
#include "model/functional_layer.hpp"
#include "serve/kv_cache.hpp"
#include "serve/serve_config.hpp"
#include "stats.hpp"
#include "tensor/tensor_ops.hpp"

namespace servebench {

using softrec::ExecContext;
using softrec::Half;
using softrec::KvCache;
using softrec::KvSlab;
using softrec::Shape;
using softrec::Tensor;

namespace {

constexpr int64_t kLongPrompt = 2048;
constexpr int64_t kDecodeRows = 16;
constexpr int kMinReps = 3;
//! Extra repetitions run while the budget lasts (cheap calls only).
constexpr double kRepBudgetSeconds = 0.4;
constexpr int kMaxReps = 400;
constexpr int64_t kHalfToFloatElements = int64_t(1) << 20;
constexpr int kDispatchCalls = 4000;
constexpr int kDispatchBatch = 100;
constexpr uint64_t kReplaySeed = 0x1a7e5eedULL;
constexpr double kHalfBytes = 2.0;
//! Computed operation count of a row softmax per element: max,
//! subtract, exponential, sum and scale.
constexpr double kSoftmaxOpsPerElement = 5.0;

Tensor<Half>
randomHalf(Shape shape, softrec::Rng &rng)
{
    Tensor<Half> t(std::move(shape));
    softrec::fillNormal(t, rng);
    return t;
}

/**
 * Median seconds of `body` over at least kMinReps calls, continuing
 * while the repetition budget lasts. `prepare` runs untimed before
 * each call; every call is one span named `name` under `parent`.
 */
double
timeReps(Tracer &tracer, const char *name, int64_t parent,
         const std::function<void()> &prepare,
         const std::function<void(int64_t)> &body)
{
    std::vector<double> seconds;
    const double deadline = monotonicSeconds() + kRepBudgetSeconds;
    while (int(seconds.size()) < kMinReps ||
           (monotonicSeconds() < deadline &&
            int(seconds.size()) < kMaxReps)) {
        prepare();
        const int64_t span = tracer.begin(name, parent);
        const double t0 = monotonicSeconds();
        body(span);
        seconds.push_back(monotonicSeconds() - t0);
        tracer.end(span);
    }
    return median(seconds);
}

void
addKernel(std::vector<Metric> &out, const std::string &name,
          double seconds, double ops, double bytes)
{
    out.push_back({"kernels." + name + "_ms", seconds * 1e3, "ms"});
    out.push_back(
        {"kernels." + name + "_gflops", ops / seconds / 1e9, "GFLOP/s"});
    out.push_back({"kernels." + name + "_gbps_computed",
                   bytes / seconds / 1e9, "GB/s"});
}

double
gemmBytes(int64_t m, int64_t n, int64_t k)
{
    return kHalfBytes * double(m * k + k * n + m * n);
}

double
gemmOps(int64_t m, int64_t n, int64_t k)
{
    return 2.0 * double(m) * double(n) * double(k);
}

/** Head `h` of an [L, dModel] projection, as [L, dHead]. */
Tensor<Half>
sliceHead(const Tensor<Half> &x, int64_t h, int64_t dh)
{
    const int64_t rows = x.shape().dim(0);
    Tensor<Half> out(Shape({rows, dh}));
    for (int64_t i = 0; i < rows; ++i)
        std::memcpy(out.rowPtr(i), x.rowPtr(i) + h * dh,
                    size_t(dh) * sizeof(Half));
    return out;
}

softrec::SdaConfig
prefillSda(const softrec::FunctionalLayerConfig &cfg, int64_t rows)
{
    softrec::SdaConfig sda;
    sda.seqLen = rows;
    sda.dHead = cfg.dHead();
    sda.causalMask = cfg.causalMask;
    sda.layout = cfg.layout;
    sda.subVector = cfg.subVector;
    sda.attnTiling = cfg.attnTiling;
    sda.backend = cfg.attention;
    return sda;
}

/**
 * KV caches of the engine's default format, each `context` rows. The
 * slab is declared first so that it outlives the caches holding its
 * blocks; a set is replaced only as a whole, through its unique_ptr.
 */
struct CacheSet
{
    std::unique_ptr<KvSlab> slab;
    std::vector<std::unique_ptr<KvCache>> owned;
    std::vector<KvCache *> caches;
    double appendSeconds = 0.0; //!< total time of the appendRow calls
    int64_t appends = 0;
};

std::unique_ptr<CacheSet>
makeCaches(int64_t rows, int64_t context, const Tensor<Half> &source)
{
    const softrec::ServeConfig defaults;
    auto set = std::make_unique<CacheSet>();
    set->slab = std::make_unique<KvSlab>(defaults.kvBlockTokens, kDModel,
                                         64, defaults.kvDtype);
    const double t0 = monotonicSeconds();
    for (int64_t r = 0; r < rows; ++r) {
        set->owned.push_back(std::make_unique<KvCache>(*set->slab, kLayers));
        for (int64_t l = 0; l < kLayers; ++l)
            for (int64_t i = 0; i < context; ++i)
                set->owned.back()->appendRow(l, source.rowPtr(i),
                                             source.rowPtr(context - 1 - i));
        set->caches.push_back(set->owned.back().get());
    }
    set->appendSeconds = monotonicSeconds() - t0;
    set->appends = rows * kLayers * context;
    return set;
}

/** Replay of one-shot runPrefill from its public calls. */
double
replayPrefill(const ExecContext &ctx, const Model &model,
              const Tensor<Half> &prompt, Tracer &tracer, int64_t root)
{
    const softrec::FunctionalLayerConfig &cfg = model.stack.config;
    const int64_t rows = prompt.shape().dim(0);
    const int64_t dh = cfg.dHead();
    const softrec::SdaConfig sda = prefillSda(cfg, rows);
    const softrec::ServeConfig defaults;
    KvSlab slab(defaults.kvBlockTokens, kDModel, 64, defaults.kvDtype);
    KvCache cache(slab, kLayers);
    double accounted = 0.0;
    const auto op = [&](const char *name, int64_t parent,
                        const std::function<void(int64_t)> &body) {
        const int64_t span = tracer.begin(name, parent);
        const double t0 = monotonicSeconds();
        body(span);
        accounted += monotonicSeconds() - t0;
        tracer.end(span);
    };
    Tensor<Half> x = prompt;
    for (int64_t l = 0; l < kLayers; ++l) {
        const softrec::EncoderLayerWeights &w = model.stack.layers[size_t(l)];
        const int64_t layer = tracer.begin("replay.layer", root);
        Tensor<Half> q, k, v, projected, ff1, ff2;
        Tensor<Half> attention(Shape({rows, kDModel}));
        Tensor<Half> post(x.shape()), hidden(x.shape()), out(x.shape());
        op("fc.q", layer, [&](int64_t) {
            q = softrec::projectRows(ctx, "fc.q", x, w.wq, w.bq);
        });
        op("fc.k", layer, [&](int64_t) {
            k = softrec::projectRows(ctx, "fc.k", x, w.wk, w.bk);
        });
        op("fc.v", layer, [&](int64_t) {
            v = softrec::projectRows(ctx, "fc.v", x, w.wv, w.bv);
        });
        op("core.attention", layer, [&](int64_t span) {
            softrec::parallelFor(ctx, 0, kHeads, 1,
                                 [&](int64_t h0, int64_t h1) {
                for (int64_t h = h0; h < h1; ++h) {
                    ScopedSpan head(&tracer, "core.runAttention", span);
                    const softrec::AttentionInputs in{
                        sliceHead(q, h, dh), sliceHead(k, h, dh),
                        sliceHead(v, h, dh)};
                    const Tensor<Half> o =
                        softrec::runAttention(ctx, sda, in, cfg.strategy);
                    for (int64_t i = 0; i < rows; ++i)
                        std::memcpy(attention.rowPtr(i) + h * dh,
                                    o.rowPtr(i), size_t(dh) * sizeof(Half));
                }
            });
        });
        op("fc.out", layer, [&](int64_t) {
            projected =
                softrec::projectRows(ctx, "fc.out", attention, w.wo, w.bo);
        });
        op("ew.residual", layer, [&](int64_t) {
            softrec::residualAddRun(ctx, x, projected, post);
        });
        op("ew.layernorm", layer, [&](int64_t) {
            softrec::layerNormRun(ctx, post, w.gamma1, w.beta1, hidden);
        });
        op("ff.1", layer, [&](int64_t) {
            ff1 = softrec::projectRows(ctx, "ff.1", hidden, w.w1, w.b1,
                                       /*gelu=*/true);
        });
        op("ff.2", layer, [&](int64_t) {
            ff2 = softrec::projectRows(ctx, "ff.2", ff1, w.w2, w.b2);
        });
        op("ew.residual", layer, [&](int64_t) {
            softrec::residualAddRun(ctx, hidden, ff2, post);
        });
        op("ew.layernorm", layer, [&](int64_t) {
            softrec::layerNormRun(ctx, post, w.gamma2, w.beta2, out);
        });
        op("kv.append", layer, [&](int64_t) {
            for (int64_t i = 0; i < rows; ++i)
                cache.appendRow(l, k.rowPtr(i), v.rowPtr(i));
        });
        x = std::move(out);
        tracer.end(layer);
    }
    return accounted;
}

/** The attention of one decode step: every (row, head) problem. */
void
decodeAttention(const ExecContext &ctx, const Model &model, int64_t layer,
                const std::vector<KvCache *> &caches,
                softrec::DecodeStepWorkspace &ws,
                const std::function<void(double, double)> &onCall)
{
    const int64_t rows = int64_t(caches.size());
    const int64_t dh = model.stack.config.dHead();
    softrec::DecodeAttendDesc attend;
    attend.dHead = dh;
    attend.scale = 1.0 / std::sqrt(double(dh));
    const bool streaming = model.stack.config.attention ==
                           softrec::AttentionBackend::Streaming;
    softrec::parallelFor(ctx, 0, rows * kHeads, 1,
                         [&](int64_t i0, int64_t i1) {
        softrec::DecodeAttendWorkspace &attend_ws =
            ws.attend[size_t(softrec::currentThreadSlot())];
        for (int64_t i = i0; i < i1; ++i) {
            const int64_t r = i / kHeads;
            const int64_t h = i % kHeads;
            softrec::DecodeAttendDesc head = attend;
            head.headOffset = h * dh;
            const KvCache &cache = *caches[size_t(r)];
            const double t0 = monotonicSeconds();
            if (streaming) {
                softrec::decodeAttendStreamRun(
                    ctx, head, ws.q.rowPtr(r) + h * dh, cache.kView(layer),
                    cache.vView(layer), ws.attention.rowPtr(r) + h * dh,
                    &attend_ws);
            } else {
                softrec::decodeAttendRun(
                    ctx, head, ws.q.rowPtr(r) + h * dh, cache.kView(layer),
                    cache.vView(layer), ws.attention.rowPtr(r) + h * dh,
                    &attend_ws);
            }
            if (onCall)
                onCall(t0, monotonicSeconds());
        }
    });
}

/** Replay of runDecodeStepInto from its public calls. */
double
replayDecodeStep(const ExecContext &ctx, const Model &model,
                 const Tensor<Half> &inputs, const CacheSet &set,
                 Tracer &tracer, int64_t root)
{
    softrec::DecodeStepWorkspace ws;
    ws.prepare(model.stack, inputs.shape().dim(0));
    std::memcpy(ws.x.data(), inputs.data(),
                size_t(inputs.numel()) * sizeof(Half));
    double accounted = 0.0;
    const auto op = [&](const char *name, int64_t parent,
                        const std::function<void()> &body) {
        const int64_t span = tracer.begin(name, parent);
        const double t0 = monotonicSeconds();
        body();
        accounted += monotonicSeconds() - t0;
        tracer.end(span);
    };
    const int64_t rows = inputs.shape().dim(0);
    for (int64_t l = 0; l < kLayers; ++l) {
        const softrec::EncoderLayerWeights &w = model.stack.layers[size_t(l)];
        const int64_t layer = tracer.begin("replay.layer", root);
        op("fc.q", layer, [&] {
            softrec::projectRowsInto(ctx, "fc.q", ws.x, w.wq, w.bq, false,
                                     ws.q);
        });
        op("fc.k", layer, [&] {
            softrec::projectRowsInto(ctx, "fc.k", ws.x, w.wk, w.bk, false,
                                     ws.k);
        });
        op("fc.v", layer, [&] {
            softrec::projectRowsInto(ctx, "fc.v", ws.x, w.wv, w.bv, false,
                                     ws.v);
        });
        op("kv.append", layer, [&] {
            for (int64_t r = 0; r < rows; ++r)
                set.caches[size_t(r)]->appendRow(l, ws.k.rowPtr(r),
                                                 ws.v.rowPtr(r));
        });
        op("decode.attention", layer, [&] {
            decodeAttention(ctx, model, l, set.caches, ws, {});
        });
        op("fc.out", layer, [&] {
            softrec::projectRowsInto(ctx, "fc.out", ws.attention, w.wo,
                                     w.bo, false, ws.projected);
        });
        op("ew.residual", layer, [&] {
            softrec::residualAddRun(ctx, ws.x, ws.projected, ws.postAttn);
        });
        op("ew.layernorm", layer, [&] {
            softrec::layerNormRun(ctx, ws.postAttn, w.gamma1, w.beta1,
                                  ws.hidden);
        });
        op("ff.1", layer, [&] {
            softrec::projectRowsInto(ctx, "ff.1", ws.hidden, w.w1, w.b1,
                                     /*gelu=*/true, ws.ff1);
        });
        op("ff.2", layer, [&] {
            softrec::projectRowsInto(ctx, "ff.2", ws.ff1, w.w2, w.b2, false,
                                     ws.ff2);
        });
        op("ew.residual", layer, [&] {
            softrec::residualAddRun(ctx, ws.hidden, ws.ff2, ws.postAttn);
        });
        op("ew.layernorm", layer, [&] {
            softrec::layerNormRun(ctx, ws.postAttn, w.gamma2, w.beta2,
                                  ws.out);
        });
        std::swap(ws.x, ws.out);
        tracer.end(layer);
    }
    return accounted;
}

/** Decode-shape name, e.g. r16c256. */
std::string
decodeShape(int64_t rows, int64_t context)
{
    return "r" + std::to_string(rows) + "c" + std::to_string(context);
}

} // namespace

LayerReport
measureLayers(const ExecContext &ctx, const Model &model, Tracer &tracer)
{
    LayerReport report;
    std::vector<Metric> &out = report.metrics;
    softrec::Rng rng(kReplaySeed);
    const softrec::FunctionalLayerConfig &cfg = model.stack.config;
    const softrec::EncoderLayerWeights &w0 = model.stack.layers[0];
    const int64_t dh = cfg.dHead();
    const Tensor<Half> source = randomHalf(Shape({kLongPrompt, kDModel}), rng);
    double appendSeconds = 0.0;
    int64_t appends = 0;

    // model/decode: one-shot prefill per prompt class, and its replay.
    double prefillLong = 0.0;
    for (const int64_t len : {int64_t(128), int64_t(256), kLongPrompt}) {
        const Tensor<Half> prompt = randomHalf(Shape({len, kDModel}), rng);
        std::unique_ptr<KvSlab> slab;
        std::unique_ptr<KvCache> cache;
        const softrec::ServeConfig defaults;
        const double seconds = timeReps(
            tracer, "model.runPrefill", -1,
            [&] {
                cache.reset();
                slab = std::make_unique<KvSlab>(defaults.kvBlockTokens,
                                                kDModel, 64, defaults.kvDtype);
                cache = std::make_unique<KvCache>(*slab, kLayers);
            },
            [&](int64_t) {
                softrec::runPrefill(ctx, model.stack, prompt, *cache);
            });
        cache.reset();
        out.push_back({"model.prefill_ms." + std::to_string(len),
                       seconds * 1e3, "ms"});
        if (len == kLongPrompt)
            prefillLong = seconds;
    }
    {
        const Tensor<Half> prompt =
            randomHalf(Shape({kLongPrompt, kDModel}), rng);
        std::vector<double> accounted;
        for (int rep = 0; rep < kMinReps; ++rep) {
            ScopedSpan root(&tracer, "replay.prefill.2048");
            accounted.push_back(
                replayPrefill(ctx, model, prompt, tracer, root.id()));
        }
        const double share = median(accounted) / prefillLong;
        out.push_back({"model.prefill_accounted_share.2048", share, "ratio"});
        report.accountingOk &= std::fabs(share - 1.0) <= kAccountingTolerance;
    }

    // model/decode: one decode step at each workload's rows and context.
    struct DecodeCase
    {
        int64_t rows, context;
    };
    for (const DecodeCase c : {DecodeCase{1, kLongPrompt},
                               DecodeCase{8, 256}, DecodeCase{16, 256}}) {
        const Tensor<Half> inputs = randomHalf(Shape({c.rows, kDModel}), rng);
        std::unique_ptr<CacheSet> set;
        softrec::DecodeStepWorkspace ws;
        Tensor<Half> outputs;
        const double seconds = timeReps(
            tracer, "model.runDecodeStepInto", -1,
            [&] {
                set.reset();
                set = makeCaches(c.rows, c.context, source);
                appendSeconds += set->appendSeconds;
                appends += set->appends;
            },
            [&](int64_t) {
                softrec::runDecodeStepInto(ctx, model.stack, inputs,
                                           set->caches, ws, outputs);
            });
        out.push_back(
            {"model.decode_step_ms." + decodeShape(c.rows, c.context),
             seconds * 1e3, "ms"});
        if (c.rows != kDecodeRows)
            continue;
        std::vector<double> accounted;
        for (int rep = 0; rep < kMinReps * 3; ++rep) {
            set.reset();
            set = makeCaches(c.rows, c.context, source);
            ScopedSpan root(&tracer, "replay.decode_step.r16c256");
            accounted.push_back(replayDecodeStep(ctx, model, inputs, *set,
                                                 tracer, root.id()));
        }
        const double share = median(accounted) / seconds;
        out.push_back(
            {"model.decode_accounted_share.r16c256", share, "ratio"});
        report.accountingOk &= std::fabs(share - 1.0) <= kAccountingTolerance;
    }

    // core/attention_exec: one layer's heads, causal, at 2048.
    std::vector<softrec::AttentionInputs> heads;
    for (int64_t h = 0; h < kHeads; ++h)
        heads.push_back({randomHalf(Shape({kLongPrompt, dh}), rng),
                         randomHalf(Shape({kLongPrompt, dh}), rng),
                         randomHalf(Shape({kLongPrompt, dh}), rng)});
    const softrec::SdaConfig sda = prefillSda(cfg, kLongPrompt);
    const double attention = timeReps(
        tracer, "core.attention.2048", -1, [] {},
        [&](int64_t span) {
            softrec::parallelFor(ctx, 0, kHeads, 1,
                                 [&](int64_t h0, int64_t h1) {
                for (int64_t h = h0; h < h1; ++h) {
                    ScopedSpan head(&tracer, "core.runAttention", span);
                    softrec::runAttention(ctx, sda, heads[size_t(h)],
                                          cfg.strategy);
                }
            });
        });
    out.push_back({"core.attention_ms", attention * 1e3, "ms"});
    out.push_back({"core.attention_prefill_share",
                   double(kLayers) * attention / prefillLong, "ratio"});

    // kernels inside attention, called as one layer's heads call them:
    // in a parallel region over heads, one head per chunk.
    {
        softrec::GemmDesc qk;
        qk.name = "sda.qk";
        qk.m = kLongPrompt;
        qk.n = kLongPrompt;
        qk.k = dh;
        qk.tiling = cfg.attnTiling;
        qk.epilogue.scale = sda.scale();
        qk.epilogue.causalMask = true;
        softrec::GemmDesc av;
        av.name = "sda.av";
        av.m = kLongPrompt;
        av.n = dh;
        av.k = kLongPrompt;
        av.tiling = cfg.attnTiling;
        softrec::SoftmaxShape softmax;
        softmax.rows = kLongPrompt;
        softmax.cols = kLongPrompt;
        std::mutex mutex;
        std::vector<double> tqk, tsm, tav;
        for (int rep = 0; rep < kMinReps; ++rep) {
            ScopedSpan region(&tracer, "kernels.attention_heads");
            softrec::parallelFor(ctx, 0, kHeads, 1,
                                 [&](int64_t h0, int64_t h1) {
                for (int64_t h = h0; h < h1; ++h) {
                    const softrec::AttentionInputs &in = heads[size_t(h)];
                    Tensor<Half> scores(Shape({kLongPrompt, kLongPrompt}));
                    Tensor<Half> probs(Shape({kLongPrompt, kLongPrompt}));
                    Tensor<Half> o(Shape({kLongPrompt, dh}));
                    softrec::GemmOperands qk_ops;
                    qk_ops.a = &in.q;
                    qk_ops.b = &in.k;
                    qk_ops.transposeB = true;
                    softrec::GemmOperands av_ops;
                    av_ops.a = &probs;
                    av_ops.b = &in.v;
                    const double t0 = monotonicSeconds();
                    softrec::gemmRun(ctx, qk, qk_ops, scores);
                    const double t1 = monotonicSeconds();
                    softrec::rowSoftmaxRun(ctx, softmax, scores, probs);
                    const double t2 = monotonicSeconds();
                    softrec::gemmRun(ctx, av, av_ops, o);
                    const double t3 = monotonicSeconds();
                    tracer.add("kernels.gemm.qk", t0, t1, region.id());
                    tracer.add("kernels.softmax.row", t1, t2, region.id());
                    tracer.add("kernels.gemm.av", t2, t3, region.id());
                    std::lock_guard<std::mutex> lock(mutex);
                    tqk.push_back(t1 - t0);
                    tsm.push_back(t2 - t1);
                    tav.push_back(t3 - t2);
                }
            });
        }
        const double ll = double(kLongPrompt) * double(kLongPrompt);
        addKernel(out, "softmax.row", median(tsm), kSoftmaxOpsPerElement * ll,
                  2.0 * kHalfBytes * ll);
        addKernel(out, "gemm.qk", median(tqk),
                  gemmOps(kLongPrompt, kLongPrompt, dh),
                  gemmBytes(kLongPrompt, kLongPrompt, dh));
        addKernel(out, "gemm.av", median(tav),
                  gemmOps(kLongPrompt, dh, kLongPrompt),
                  gemmBytes(kLongPrompt, dh, kLongPrompt));
    }

    // kernels the layer calls on the whole pool: projections, FF,
    // LayerNorm at the long prompt, and the decode projection.
    struct ProjCase
    {
        const char *name;
        int64_t rows;
        const Tensor<Half> *w;
        const Tensor<float> *b;
        bool gelu;
    };
    for (const ProjCase &p :
         {ProjCase{"gemm.proj", kLongPrompt, &w0.wq, &w0.bq, false},
          ProjCase{"gemm.ff1", kLongPrompt, &w0.w1, &w0.b1, true},
          ProjCase{"gemm.ff2", kLongPrompt, &w0.w2, &w0.b2, false},
          ProjCase{"gemm.decode_proj", kDecodeRows, &w0.wq, &w0.bq, false}}) {
        const int64_t k = p.w->shape().dim(0);
        const int64_t n = p.w->shape().dim(1);
        const Tensor<Half> x = randomHalf(Shape({p.rows, k}), rng);
        Tensor<Half> y(Shape({p.rows, n}));
        const double seconds = timeReps(
            tracer, p.name, -1, [] {},
            [&](int64_t) {
                softrec::projectRowsInto(ctx, p.name, x, *p.w, *p.b, p.gelu,
                                         y);
            });
        addKernel(out, p.name, seconds, gemmOps(p.rows, n, k),
                  gemmBytes(p.rows, n, k) + 4.0 * double(n));
    }
    {
        const Tensor<Half> x = randomHalf(Shape({kLongPrompt, kDModel}), rng);
        Tensor<Half> y(x.shape());
        const double seconds = timeReps(
            tracer, "layernorm", -1, [] {},
            [&](int64_t) {
                softrec::layerNormRun(ctx, x, w0.gamma1, w0.beta1, y);
            });
        const double elems = double(kLongPrompt * kDModel);
        // Per element: mean, variance, normalise, scale and shift.
        addKernel(out, "layernorm", seconds, 5.0 * elems,
                  2.0 * kHalfBytes * elems + 8.0 * double(kDModel));
    }

    // kernels: decode attention at two contexts, 16 rows x heads.
    for (const int64_t context : {int64_t(128), int64_t(512)}) {
        const std::unique_ptr<CacheSet> set =
            makeCaches(kDecodeRows, context, source);
        appendSeconds += set->appendSeconds;
        appends += set->appends;
        softrec::DecodeStepWorkspace ws;
        ws.prepare(model.stack, kDecodeRows);
        softrec::fillNormal(ws.q, rng);
        std::mutex mutex;
        std::vector<double> calls;
        const double deadline = monotonicSeconds() + kRepBudgetSeconds;
        for (int rep = 0; rep < kMinReps || monotonicSeconds() < deadline;
             ++rep) {
            ScopedSpan region(&tracer, "kernels.decode_attend");
            decodeAttention(ctx, model, 0, set->caches, ws,
                            [&](double t0, double t1) {
                std::lock_guard<std::mutex> lock(mutex);
                calls.push_back(t1 - t0);
            });
        }
        const double c = double(context);
        addKernel(out, "decode_attend.c" + std::to_string(context),
                  median(calls),
                  4.0 * c * double(dh) + kSoftmaxOpsPerElement * c,
                  kHalfBytes * (2.0 * c * double(dh) + 2.0 * double(dh)));
    }

    // serve/kv_cache: appendRow, over every cache filled above.
    out.push_back({"kv.append_row_ns",
                   appendSeconds / double(appends) * 1e9, "ns"});

    // fp16: the batch conversion decode GEMMs run on fp16 weights.
    {
        std::vector<Half> src(static_cast<size_t>(kHalfToFloatElements));
        for (size_t i = 0; i < src.size(); ++i)
            src[i] = source.data()[i % size_t(source.numel())];
        std::vector<float> dst(src.size());
        const double seconds = timeReps(
            tracer, "fp16.halfToFloat", -1, [] {},
            [&](int64_t) {
                softrec::halfToFloat(src.data(), dst.data(),
                                     kHalfToFloatElements);
            });
        out.push_back({"fp16.half_to_float_gbps",
                       double(kHalfToFloatElements) *
                           (kHalfBytes + sizeof(float)) / seconds / 1e9,
                       "GB/s"});
    }

    // common/exec_context: empty-body dispatch, one chunk per thread.
    // Timed in batches: on a 1-thread pool one dispatch runs inline in
    // a few nanoseconds, below the clock's resolution.
    {
        std::vector<double> batches;
        batches.reserve(kDispatchCalls / kDispatchBatch);
        ScopedSpan region(&tracer, "exec.parallelFor.empty");
        for (int b = 0; b < kDispatchCalls / kDispatchBatch; ++b) {
            const double t0 = monotonicSeconds();
            for (int i = 0; i < kDispatchBatch; ++i)
                softrec::parallelFor(ctx, 0, ctx.threads(), 1,
                                     [](int64_t, int64_t) {});
            batches.push_back((monotonicSeconds() - t0) / kDispatchBatch);
        }
        out.push_back({"exec.parallel_for_us", median(batches) * 1e6, "us"});
    }
    return report;
}

} // namespace servebench

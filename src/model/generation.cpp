/**
 * @file
 * Simulated generation (prefill + decode) implementation.
 */

#include "model/generation.hpp"

#include <algorithm>
#include <string>

#include "common/logging.hpp"
#include "kernels/elementwise.hpp"
#include "kernels/kernel_common.hpp"

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

} // namespace softrec

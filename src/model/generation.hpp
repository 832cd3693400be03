/**
 * @file
 * Autoregressive generation (prefill + KV-cache decode) on the
 * analytical GPU model.
 *
 * The paper evaluates full-sequence inference, which is exactly the
 * *prefill* phase of autoregressive serving. This module adds the
 * decode phase — one query token per step attending over a growing
 * key/value cache — so the library can quantify where softmax
 * recomposition matters in a generation workload: the attention
 * "matrix" of a decode step is a single 1 x C row per head, so there
 * is nothing for recomposition to save there; the benefit lives
 * entirely in the prefill. The functional KV-cached path that
 * computes tokens on the CPU lives in model/decode.
 */

#ifndef SOFTREC_MODEL_GENERATION_HPP
#define SOFTREC_MODEL_GENERATION_HPP

#include <vector>

#include "model/engine.hpp"

namespace softrec {

/** One generation request. */
struct DecodeRun
{
    int64_t promptLen = 4096;    //!< prefill (context) length
    int64_t generateTokens = 64; //!< tokens produced step by step
    int64_t batch = 1;
    /** Softmax strategy for the prefill phase. */
    Strategy prefillStrategy = Strategy::Baseline;
};

/** Measurements of one generation request. */
struct DecodeResult
{
    double prefillSeconds = 0.0;  //!< full-context forward pass
    double decodeSeconds = 0.0;   //!< all generation steps
    uint64_t prefillBytes = 0;    //!< prefill off-chip traffic
    uint64_t decodeBytes = 0;     //!< decode off-chip traffic
    int64_t kernelLaunches = 0;

    /** Total request latency. */
    double totalSeconds() const
    {
        return prefillSeconds + decodeSeconds;
    }
    /** Mean decode latency per generated token. */
    double secondsPerToken(int64_t tokens) const
    {
        return tokens > 0 ? decodeSeconds / double(tokens) : 0.0;
    }
};

/**
 * Kernels of one decode step at context length `context`: QKV/output
 * projections and FF GEMVs (weight-bound), the KV-cache attention
 * read, and the per-row softmax.
 */
std::vector<KernelProfile> buildDecodeStep(const GpuSpec &spec,
                                           const ModelConfig &model,
                                           int64_t batch,
                                           int64_t context);

/**
 * Run prefill + decode for a causal (decoder-only) model.
 */
DecodeResult runGeneration(const GpuSpec &spec,
                           const ModelConfig &model,
                           const DecodeRun &run);

} // namespace softrec

#endif // SOFTREC_MODEL_GENERATION_HPP

/**
 * @file
 * Inference engine: run one forward pass of a transformer model on a
 * simulated GPU and aggregate the measurements the paper reports
 * (latency, category breakdown, off-chip traffic and access energy).
 */

#ifndef SOFTREC_MODEL_ENGINE_HPP
#define SOFTREC_MODEL_ENGINE_HPP

#include <map>
#include <string>

#include "model/schedule.hpp"

namespace softrec {

/** Aggregated measurements of one inference forward pass. */
struct InferenceResult
{
    std::string modelName;  //!< model that ran
    std::string gpuName;    //!< device it ran on
    Strategy strategy = Strategy::Baseline;
    int64_t seqLen = 0;
    int64_t batch = 0;

    double seconds = 0.0;           //!< end-to-end latency
    uint64_t dramReadBytes = 0;     //!< off-chip reads
    uint64_t dramWriteBytes = 0;    //!< off-chip writes
    double offChipEnergyJoules = 0; //!< traffic x J/byte
    int64_t kernelLaunches = 0;     //!< kernels executed

    /** Time and traffic grouped by kernel category. */
    std::map<KernelCategory, CategoryTotals> categories;

    /** Attention-matrix sweep count inside each SDA block. */
    int attentionSweeps = 0;

    /** Total off-chip traffic. */
    uint64_t dramBytes() const { return dramReadBytes + dramWriteBytes; }

    /** Seconds in a category (0 if absent). */
    double secondsIn(KernelCategory category) const;

    /** Off-chip bytes in a category (0 if absent). */
    uint64_t dramBytesIn(KernelCategory category) const;

    /** Seconds in all softmax work (baseline or decomposed). */
    double softmaxSeconds() const;

    /** Off-chip bytes of all softmax work. */
    uint64_t softmaxDramBytes() const;

    /** Seconds in the SDA block (attention GEMMs + softmax work). */
    double sdaSeconds() const;
};

/**
 * Run one inference forward pass of a model on a GPU spec and return
 * the aggregated measurements.
 */
InferenceResult runInference(const GpuSpec &spec,
                             const ModelConfig &model,
                             const RunConfig &run);

} // namespace softrec

#endif // SOFTREC_MODEL_ENGINE_HPP

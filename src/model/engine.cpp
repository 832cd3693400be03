/**
 * @file
 * Inference engine implementation.
 */

#include "model/engine.hpp"

namespace softrec {

double
InferenceResult::secondsIn(KernelCategory category) const
{
    auto it = categories.find(category);
    return it == categories.end() ? 0.0 : it->second.seconds;
}

uint64_t
InferenceResult::dramBytesIn(KernelCategory category) const
{
    auto it = categories.find(category);
    return it == categories.end() ? 0 : it->second.dramBytes();
}

double
InferenceResult::softmaxSeconds() const
{
    return secondsIn(KernelCategory::Softmax) +
           secondsIn(KernelCategory::SoftmaxLs) +
           secondsIn(KernelCategory::SoftmaxIr) +
           secondsIn(KernelCategory::SoftmaxGs);
}

uint64_t
InferenceResult::softmaxDramBytes() const
{
    return dramBytesIn(KernelCategory::Softmax) +
           dramBytesIn(KernelCategory::SoftmaxLs) +
           dramBytesIn(KernelCategory::SoftmaxIr) +
           dramBytesIn(KernelCategory::SoftmaxGs);
}

double
InferenceResult::sdaSeconds() const
{
    return secondsIn(KernelCategory::SdaMatMul) + softmaxSeconds();
}

InferenceResult
runInference(const GpuSpec &spec, const ModelConfig &model,
             const RunConfig &run)
{
    TransformerScheduler scheduler(spec, model, run);
    Gpu gpu(spec);
    scheduler.run(gpu);

    InferenceResult result;
    result.modelName = model.name;
    result.gpuName = spec.name;
    result.strategy = run.strategy;
    result.seqLen = run.seqLen;
    result.batch = run.batch;
    result.seconds = gpu.totalSeconds();
    result.dramReadBytes = gpu.totalDramReadBytes();
    result.dramWriteBytes = gpu.totalDramWriteBytes();
    result.offChipEnergyJoules =
        double(result.dramBytes()) * spec.dramEnergyPerByte;
    result.kernelLaunches = int64_t(gpu.timeline().size());
    result.categories = gpu.byCategory();
    result.attentionSweeps = scheduler.sdaSchedule().attentionSweeps;
    return result;
}

} // namespace softrec

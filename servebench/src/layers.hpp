/**
 * @file
 * Layer-by-layer replays of the traced run. Each replay times calls
 * into one layer's public functions (model/decode, core/attention_exec,
 * kernels, fp16, common/exec_context, serve/kv_cache) at the shapes
 * the workloads produce, recording a span per call. Operation counts
 * and bytes moved are computed from tensor sizes, not measured.
 */

#ifndef SERVEBENCH_LAYERS_HPP
#define SERVEBENCH_LAYERS_HPP

#include <string>
#include <vector>

#include "common/exec_context.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace servebench {

/** One reported figure. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * Tolerance of the layer accounting check: the replayed calls of a
 * prefill or decode step must add up to the one-shot call within it.
 */
constexpr double kAccountingTolerance = 0.2;

/** Per-layer figures plus the accounting verdict. */
struct LayerReport
{
    std::vector<Metric> metrics;
    bool accountingOk = true;
};

/** Run every layer replay on `ctx` (no other submitter may use it). */
LayerReport measureLayers(const softrec::ExecContext &ctx,
                          const Model &model, Tracer &tracer);

} // namespace servebench

#endif // SERVEBENCH_LAYERS_HPP

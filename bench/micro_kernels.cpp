/**
 * @file
 * google-benchmark micro-benchmarks of the functional CPU kernels:
 * the recomposition math itself (safe vs decomposed softmax), the
 * kernel-level LS/IR/GS pipeline, GEMM epilogues, and block-sparse
 * kernels. These measure the *reference implementations*, not the
 * modeled GPU; they exist to keep the functional substrate honest
 * (e.g. decomposition must not change asymptotic cost).
 */

#include <cctype>
#include <cstdlib>
#include <string>

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "common/bench_report.hpp"
#include "common/exec_context.hpp"
#include "common/logging.hpp"
#include "common/profiler.hpp"
#include "common/rng.hpp"
#include "core/attention_exec.hpp"
#include "core/softmax_math.hpp"
#include "kernels/bsr_gemm.hpp"
#include "kernels/bsr_softmax.hpp"
#include "kernels/gemm.hpp"
#include "kernels/softmax_kernels.hpp"
#include "sparse/patterns.hpp"
#include "tensor/tensor_ops.hpp"
#include "workload/corpus.hpp"

namespace softrec {
namespace {

/** Shared context: honors SOFTREC_THREADS so suites can run threaded. */
ExecContext
execCtx()
{
    return ExecContext::fromEnv();
}

void
BM_SafeSoftmax(benchmark::State &state)
{
    const size_t len = size_t(state.range(0));
    Rng rng(1);
    std::vector<double> x(len);
    for (double &v : x)
        v = rng.normal(0.0, 2.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(safeSoftmax(x));
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(len));
}
BENCHMARK(BM_SafeSoftmax)->Arg(512)->Arg(4096);

void
BM_DecomposedSoftmax(benchmark::State &state)
{
    const size_t len = size_t(state.range(0));
    Rng rng(2);
    std::vector<double> x(len);
    for (double &v : x)
        v = rng.normal(0.0, 2.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(decomposedSoftmax(x, 64));
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(len));
}
BENCHMARK(BM_DecomposedSoftmax)->Arg(512)->Arg(4096);

void
BM_RowSoftmaxKernel(benchmark::State &state)
{
    const int64_t rows = 64, cols = state.range(0);
    Rng rng(3);
    const Tensor<Half> in = makeAttentionScores(rng, rows, cols);
    Tensor<Half> out(in.shape());
    SoftmaxShape desc;
    desc.rows = rows;
    desc.cols = cols;
    for (auto _ : state)
        rowSoftmaxRun(execCtx(), desc, in, out);
    state.SetItemsProcessed(int64_t(state.iterations()) * rows * cols);
}
BENCHMARK(BM_RowSoftmaxKernel)->Arg(512)->Arg(2048);

void
BM_DecomposedKernelPipeline(benchmark::State &state)
{
    const int64_t rows = 64, cols = state.range(0);
    Rng rng(4);
    const Tensor<Half> in = makeAttentionScores(rng, rows, cols);
    SoftmaxShape sub;
    sub.rows = rows;
    sub.cols = cols;
    sub.subVector = 64;
    const Shape md({rows, sub.numSubVectors()});
    Tensor<Half> x_prime(in.shape()), out(in.shape());
    Tensor<float> lmax(md), lsum(md), recon(md);
    for (auto _ : state) {
        lsRun(execCtx(), sub, in, x_prime, lmax, lsum);
        irRun(execCtx(), sub, lmax, lsum, recon);
        gsRun(execCtx(), sub, x_prime, recon, out);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * rows * cols);
}
BENCHMARK(BM_DecomposedKernelPipeline)->Arg(512)->Arg(2048);

void
BM_GemmPlain(benchmark::State &state)
{
    const int64_t n = state.range(0);
    Rng rng(5);
    GemmDesc desc;
    desc.m = n;
    desc.n = n;
    desc.k = 64;
    Tensor<Half> a(Shape({n, 64})), b(Shape({64, n})), c(Shape({n, n}));
    fillNormal(a, rng);
    fillNormal(b, rng);
    GemmOperands ops;
    ops.a = &a;
    ops.b = &b;
    for (auto _ : state)
        gemmRun(execCtx(), desc, ops, c);
    state.SetItemsProcessed(int64_t(state.iterations()) * n * n * 64);
}
BENCHMARK(BM_GemmPlain)->Arg(128)->Arg(256);

void
BM_GemmFusedLs(benchmark::State &state)
{
    const int64_t n = state.range(0);
    Rng rng(6);
    GemmDesc desc;
    desc.m = n;
    desc.n = n;
    desc.k = 64;
    desc.epilogue.scale = 0.125;
    desc.epilogue.localSoftmax = true;
    const int64_t tiles = (n + desc.tiling.tileN - 1) /
                          desc.tiling.tileN;
    Tensor<Half> a(Shape({n, 64})), b(Shape({64, n})), c(Shape({n, n}));
    fillNormal(a, rng);
    fillNormal(b, rng);
    Tensor<float> lmax(Shape({n, tiles})), lsum(Shape({n, tiles}));
    GemmOperands ops;
    ops.a = &a;
    ops.b = &b;
    LsOutputs ls{&lmax, &lsum};
    for (auto _ : state)
        gemmRun(execCtx(), desc, ops, c, &ls);
    state.SetItemsProcessed(int64_t(state.iterations()) * n * n * 64);
}
BENCHMARK(BM_GemmFusedLs)->Arg(128)->Arg(256);

void
BM_BsrSdd(benchmark::State &state)
{
    BigBirdParams params;
    params.blockSize = 32;
    const int64_t seq_len = state.range(0);
    const BsrLayout layout = bigBirdPattern(seq_len, params);
    Rng rng(7);
    Tensor<Half> q(Shape({seq_len, 64})), k(Shape({seq_len, 64}));
    fillNormal(q, rng);
    fillNormal(k, rng);
    BsrSddDesc desc;
    desc.layout = &layout;
    desc.dHead = 64;
    desc.scale = 0.125;
    BsrMatrix s(layout);
    for (auto _ : state)
        bsrSddRun(execCtx(), desc, q, k, s);
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            layout.nnzElements());
}
BENCHMARK(BM_BsrSdd)->Arg(256)->Arg(512);

void
BM_BsrSoftmaxPipeline(benchmark::State &state)
{
    BigBirdParams params;
    params.blockSize = 32;
    const int64_t seq_len = state.range(0);
    const BsrLayout layout = bigBirdPattern(seq_len, params);
    Rng rng(8);
    const BsrMatrix in = BsrMatrix::fromDense(
        layout, makeAttentionScores(rng, seq_len, seq_len));
    BsrSoftmaxDesc desc;
    desc.layout = &layout;
    BsrMatrix x_prime(layout), out(layout);
    std::vector<float> lmax, lsum, recon;
    for (auto _ : state) {
        bsrLsRun(execCtx(), desc, in, x_prime, lmax, lsum);
        bsrIrRun(execCtx(), desc, lmax, lsum, recon);
        bsrGsRun(execCtx(), desc, x_prime, recon, out);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            layout.nnzElements());
}
BENCHMARK(BM_BsrSoftmaxPipeline)->Arg(256)->Arg(512);

void
BM_HalfConversion(benchmark::State &state)
{
    Rng rng(9);
    std::vector<float> values(4096);
    for (float &v : values)
        v = float(rng.normal(0.0, 10.0));
    for (auto _ : state) {
        uint32_t acc = 0;
        for (float v : values)
            acc += Half(v).bits();
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * 4096);
}
BENCHMARK(BM_HalfConversion);

/**
 * Measured-traffic report: run one attention head under all three
 * strategies with the profiler attached and write
 * BENCH_micro_kernels.json. The derived entries verify the paper's
 * recomposition claim on *measured* counters: the softmax layer's
 * off-chip traffic under SDF (IR plus the fused LS/GS extras) must be
 * far below the baseline kernel's four matrix sweeps.
 *
 * L defaults to 4096 (the paper's headline point); SOFTREC_BENCH_SEQLEN
 * overrides it so CI smoke runs stay fast.
 */
int
writeTrafficReport()
{
    const int64_t seq_len = bench::benchSeqLenFromEnv(4096);

    SdaConfig config;
    config.seqLen = seq_len;
    config.subVector = 64;

    Rng rng(11);
    AttentionInputs inputs = makeAttentionInputs(config);
    fillNormal(inputs.q, rng);
    fillNormal(inputs.k, rng);
    fillNormal(inputs.v, rng);

    BenchReport report("micro_kernels");
    report.setConfig("seq_len", seq_len);
    report.setConfig("d_head", config.dHead);
    report.setConfig("sub_vector", config.subVector);
    report.setConfig("threads",
                     int64_t(ExecContext::fromEnv().threads()));

    const struct
    {
        Strategy strategy;
        const char *prefix;
        const char *derived;
    } kStrategies[] = {
        {Strategy::Baseline, "baseline",
         "softmax_traffic_baseline_bytes"},
        {Strategy::Decomposed, "sd", "softmax_traffic_sd_bytes"},
        {Strategy::Fused, "sdf", "softmax_traffic_sdf_bytes"},
    };

    double baseline_traffic = 0.0, sdf_traffic = 0.0;
    for (const auto &entry : kStrategies) {
        prof::Profiler profiler;
        ExecContext ctx = ExecContext::fromEnv();
        ctx.profiler = &profiler;
        runAttention(ctx, config, inputs, entry.strategy);

        double softmax_bytes = 0.0;
        for (const auto &[name, stats] : profiler.snapshot()) {
            report.addKernel(BenchKernelRow::fromScope(
                std::string(entry.prefix) + "/" + name, stats));
            if (name.rfind("softmax.", 0) == 0)
                softmax_bytes +=
                    double(stats.bytesRead + stats.bytesWritten);
        }
        report.setDerived(entry.derived, softmax_bytes);
        if (entry.strategy == Strategy::Baseline)
            baseline_traffic = softmax_bytes;
        if (entry.strategy == Strategy::Fused)
            sdf_traffic = softmax_bytes;
    }
    report.setDerived("softmax_traffic_sdf_over_baseline",
                      baseline_traffic > 0.0
                          ? sdf_traffic / baseline_traffic
                          : 0.0);

    const std::string path = report.defaultPath();
    if (!report.writeFile(path))
        return 1;
    inform("wrote %s (L = %lld, SDF/baseline softmax traffic = %.4f)",
           path.c_str(), (long long)seq_len,
           baseline_traffic > 0.0 ? sdf_traffic / baseline_traffic
                                  : 0.0);
    return 0;
}

/** google-benchmark's reading of a boolean flag value ("" is true). */
bool
truthy(std::string value)
{
    if (value.size() == 1) {
        const char ch = value[0];
        return std::isalnum(static_cast<unsigned char>(ch)) &&
               std::string("0fFnN").find(ch) == std::string::npos;
    }
    for (char &ch : value)
        ch = char(std::tolower(static_cast<unsigned char>(ch)));
    return value != "false" && value != "no" && value != "off";
}

/**
 * True if google-benchmark is asked only to list the benchmarks
 * (--benchmark_list_tests, or its BENCHMARK_LIST_TESTS environment
 * default): a list request times nothing and writes no report.
 */
bool
listRequested(int argc, char **argv)
{
    const std::string flag = "--benchmark_list_tests";
    bool list = false;
    if (const char *env = std::getenv("BENCHMARK_LIST_TESTS"))
        list = truthy(env);
    for (int i = 1; i < argc; ++i) { // the last occurrence wins
        const std::string arg = argv[i];
        if (arg == flag)
            list = true;
        else if (arg.rfind(flag + "=", 0) == 0)
            list = truthy(arg.substr(flag.size() + 1));
    }
    return list;
}

} // namespace
} // namespace softrec

int
main(int argc, char **argv)
{
    const bool list_only = softrec::listRequested(argc, argv);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return list_only ? 0 : softrec::writeTrafficReport();
}

/**
 * @file
 * Serving benchmark: offers one workload to a ServeEngine for a fixed
 * time and prints TTFT, inter-token latency, throughput, service-limit
 * attainment, set-up time and memory as one JSON line; with --trace 1
 * it instead prints per-layer figures from a traced run. See
 * METRICS.md for the metrics, workloads and the layer each metric
 * should move.
 *
 *   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *              [--out-dir <dir>] [--git-sha <sha>] [--source-digest <hex>]
 *
 * Exit codes: 0 run complete and outputs correct; 1 an output check
 * failed (the result line says correct: false); 2 usage or
 * environment error; 3 the client fell behind its arrival schedule,
 * so the run is invalid rather than a measurement of the program.
 */

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/exec_context.hpp"
#include "common/profiler.hpp"
#include "fp16/half.hpp"
#include "layers.hpp"
#include "serve/serve_config.hpp"
#include "serve/serve_engine.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workload.hpp"

extern char **environ;

namespace servebench {
namespace {

//! Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
//! A run whose client sent this late (tail percentile) is invalid.
constexpr double kMaxLagTailSeconds = 0.05;

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string outDir = ".bench_out";
    std::string gitSha = "unknown";
    std::string sourceDigest = "unknown";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::string names;
    for (const std::string &name : workloadNames())
        names += (names.empty() ? "" : "|") + name;
    throw std::invalid_argument(
        why + "\nusage: servebench --workload " + names +
        " --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>] "
        "[--git-sha <sha>] [--source-digest <hex>]");
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool have[4] = {false, false, false, false};
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        size_t used = 0;
        try {
            if (flag == "--workload") {
                args.workload = value;
                have[0] = true;
                used = value.size();
            } else if (flag == "--seed") {
                args.seed = std::stoull(value, &used);
                have[1] = true;
            } else if (flag == "--seconds") {
                args.seconds = std::stod(value, &used);
                have[2] = true;
            } else if (flag == "--trace") {
                if (value != "0" && value != "1")
                    usage("--trace takes 0 or 1");
                args.trace = value == "1";
                have[3] = true;
                used = value.size();
            } else if (flag == "--out-dir") {
                args.outDir = value;
                used = value.size();
            } else if (flag == "--git-sha") {
                args.gitSha = value;
                used = value.size();
            } else if (flag == "--source-digest") {
                args.sourceDigest = value;
                used = value.size();
            } else {
                usage("unknown argument " + flag);
            }
        } catch (const std::logic_error &) {
            usage("bad value '" + value + "' for " + flag);
        }
        if (used != value.size())
            usage("bad value '" + value + "' for " + flag);
    }
    if (!(have[0] && have[1] && have[2] && have[3]))
        usage("--workload, --seed, --seconds and --trace are required");
    if (findWorkload(args.workload) == nullptr)
        usage("unknown workload '" + args.workload + "'");
    if (!(args.seconds > 0.0 && args.seconds <= 3600.0))
        usage("--seconds must be in (0, 3600]");
    return args;
}

/**
 * The program is measured at its defaults: a SOFTREC_* variable left
 * in the environment (SOFTREC_ATTENTION=streaming, say) would change
 * what runs without the benchmark knowing. The benchmark sets none.
 */
void
refuseSoftrecEnvironment()
{
    std::string found;
    for (char **entry = environ; *entry != nullptr; ++entry) {
        if (std::strncmp(*entry, "SOFTREC_", 8) != 0)
            continue;
        const char *eq = std::strchr(*entry, '=');
        found += (found.empty() ? "" : ", ") +
                 std::string(*entry, eq ? size_t(eq - *entry)
                                        : std::strlen(*entry));
    }
    if (!found.empty())
        throw std::invalid_argument(
            "refusing to run with " + found +
            " set: the benchmark measures the program's defaults");
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    for (unsigned leaf = 0; leaf < 3; ++leaf)
        if (!__get_cpuid(0x80000002u + leaf, &regs[4 * leaf],
                         &regs[4 * leaf + 1], &regs[4 * leaf + 2],
                         &regs[4 * leaf + 3]))
            return "unknown";
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    model.erase(0, model.find_first_not_of(' '));
    return model;
#else
    return "unknown";
#endif
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) * 1024.0 / 1e6; // ru_maxrss is KiB
}

/** An engine ready to serve: pool, model, started engine, warmed. */
struct Served
{
    Served(const WorkloadSpec &spec, softrec::prof::Profiler *profiler)
        : pool(kPoolThreads), ctx{&pool, profiler}, model(makeModel()),
          engine(std::make_unique<softrec::ServeEngine>(
              ctx, model.stack, softrec::ServeConfig{}))
    {
        engine->start();
        warmUp(*engine, model, spec);
    }

    softrec::ThreadPool pool;
    softrec::ExecContext ctx;
    Model model;
    std::unique_ptr<softrec::ServeEngine> engine;
};

/** Client-side figures of one measured window. */
struct Summary
{
    int64_t attempted = 0;
    int64_t completed = 0; //!< finished with every token, check passed
    int64_t sloMet = 0;
    int64_t checked = 0;
    int64_t mismatched = 0;
    bool tokensComplete = true;
    std::vector<double> ttft, itl, lag, submit;
    std::vector<int64_t> itlRequest; //!< request index of each itl gap
    double outputTokS = 0.0;
    double promptTokS = 0.0;
};

Summary
summarize(const RunOutput &run, const WorkloadSpec &spec)
{
    Summary s;
    std::vector<Event> tokens, prompts;
    for (const auto &owned : run.requests) {
        const RequestRecord &r = *owned;
        ++s.attempted;
        s.lag.push_back(r.lag);
        s.submit.push_back(r.submitEnd - r.submitStart);
        if (r.checked && r.finished)
            ++s.checked;
        if (r.mismatch)
            ++s.mismatched;
        const bool whole =
            r.finished && int64_t(r.receipts.size()) == r.plan.generate;
        if (r.finished && !whole)
            s.tokensComplete = false;
        for (double at : r.receipts)
            tokens.push_back({at, 1.0});
        if (r.receipts.empty())
            continue;
        prompts.push_back({r.receipts.front(), double(r.promptTokens)});
        const RequestLatency latency = requestLatency(r.due, r.receipts);
        s.ttft.push_back(latency.ttft);
        s.itl.insert(s.itl.end(), latency.gaps.begin(), latency.gaps.end());
        s.itlRequest.insert(s.itlRequest.end(), latency.gaps.size(),
                            r.plan.index);
        if (!whole || r.mismatch)
            continue;
        ++s.completed;
        if (latency.ttft <= spec.ttftLimitSeconds &&
            latency.maxGap <= spec.gapLimitSeconds)
            ++s.sloMet;
    }
    for (const auto &r : run.ramp)
        for (double at : r->receipts)
            tokens.push_back({at, 1.0});
    if (s.ttft.empty() || s.itl.empty())
        throw std::runtime_error(
            "no request produced two tokens; "
            "run longer");
    s.outputTokS = eventRate(tokens, run.windowStart, run.windowEnd);
    s.promptTokS = eventRate(prompts, run.windowStart, run.windowEnd);
    return s;
}

/** Check the kept outputs of `run` against the serial reference. */
void
checkOutputs(const softrec::ExecContext &ctx, const Model &model,
             RunOutput &run)
{
    for (auto &owned : run.requests) {
        RequestRecord &r = *owned;
        if (r.checked && r.finished)
            r.mismatch = !matchesReference(ctx, model, r);
    }
}

/** Minimal JSON object writer (keys are plain identifiers). */
class Json
{
  public:
    Json &num(const std::string &key, double value)
    {
        if (!std::isfinite(value))
            throw std::runtime_error("metric " + key + " is not finite");
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        return raw(key, buf);
    }
    Json &integer(const std::string &key, int64_t value)
    {
        return raw(key, std::to_string(value));
    }
    Json &boolean(const std::string &key, bool value)
    {
        return raw(key, value ? "true" : "false");
    }
    Json &str(const std::string &key, const std::string &value)
    {
        std::string quoted = "\"";
        for (const char c : value) {
            if (c == '"' || c == '\\')
                quoted += '\\';
            if (static_cast<unsigned char>(c) >= 0x20)
                quoted += c;
        }
        return raw(key, quoted + "\"");
    }
    Json &obj(const std::string &key, const Json &value)
    {
        return raw(key, value.str());
    }
    Json &raw(const std::string &key, const std::string &value)
    {
        body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + value;
        return *this;
    }
    std::string str() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

Json
tailJson(const TailPercentile &tail)
{
    Json j;
    j.num("value_ms", tail.value * 1e3)
        .num("percentile", tail.percentile)
        .integer("beyond", tail.beyond)
        .integer("samples", tail.samples)
        .boolean("supported", tail.supported);
    return j;
}

double
ratio(double part, double whole)
{
    return whole > 0.0 ? part / whole : 0.0;
}

/**
 * Share of the tail inter-token gaps that overlap the prefill wait
 * (submit to first token) of a request of the workload's longest
 * prompt class.
 */
double
tailGapsInLongPrefill(const RunOutput &run, const WorkloadSpec &spec,
                      double threshold)
{
    size_t longest = 0;
    for (size_t c = 1; c < spec.classes.size(); ++c)
        if (spec.classes[c].maxPrompt > spec.classes[longest].maxPrompt)
            longest = c;
    std::vector<std::pair<double, double>> prefills;
    for (const auto &r : run.requests)
        if (r->plan.classIndex == int64_t(longest) && !r->receipts.empty())
            prefills.emplace_back(r->submitEnd, r->receipts.front());
    int64_t tail = 0, inside = 0;
    for (const auto &r : run.requests) {
        for (size_t i = 1; i < r->receipts.size(); ++i) {
            const double lo = r->receipts[i - 1], hi = r->receipts[i];
            if (hi - lo < threshold)
                continue;
            ++tail;
            for (const auto &[a, b] : prefills) {
                if (a < hi && b > lo) {
                    ++inside;
                    break;
                }
            }
        }
    }
    return ratio(double(inside), double(tail));
}

int
run(const Args &args)
{
    refuseSoftrecEnvironment();
    const WorkloadSpec &spec = *findWorkload(args.workload);
    const std::vector<std::vector<int64_t>> checks =
        chooseChecked(spec, args.seed);

    std::vector<double> setupSeconds;
    std::unique_ptr<Served> served;
    for (int i = 0; i < kSetups; ++i) {
        served.reset();
        const double t0 = monotonicSeconds();
        served = std::make_unique<Served>(spec, nullptr);
        setupSeconds.push_back(monotonicSeconds() - t0);
    }

    // The traced run splits the window: an untraced half, then the
    // same request sequence again with spans and the profiler on, so
    // the difference between the halves is the tracing overhead.
    const double window = args.trace ? args.seconds / 2.0 : args.seconds;
    RunOutput plain = runWorkload(*served->engine, served->model, spec,
                                  args.seed, window, checks, nullptr);
    served->engine->shutdown();
    // Taken before the output check, whose reference runs would add
    // their own allocations to the serving peak.
    const double peakRss = peakRssMb();

    softrec::prof::Profiler profiler;
    Tracer tracer;
    RunOutput traced;
    std::unique_ptr<Served> tracedServed;
    if (args.trace) {
        tracedServed = std::make_unique<Served>(spec, &profiler);
        profiler.reset();
        traced = runWorkload(*tracedServed->engine, tracedServed->model,
                             spec, args.seed, window, checks, &tracer);
        tracedServed->engine->shutdown();
    }

    const softrec::ExecContext checkCtx{&served->pool, nullptr};
    checkOutputs(checkCtx, served->model, plain);
    checkOutputs(checkCtx, served->model, traced);
    const Summary s = summarize(plain, spec);
    const Summary ts = args.trace ? summarize(traced, spec) : Summary{};

    const TailPercentile ttftTail = tailPercentile(s.ttft);
    // The inter-token tail is reported but not gated: on the reference
    // host it follows the host's wake-up latency, not the program
    // (METRICS.md), so it is a detail figure and a per-layer one.
    const TailPercentile itlTail = groupedTailPercentile(s.itl, s.itlRequest);
    std::vector<double> lags = s.lag;
    lags.insert(lags.end(), ts.lag.begin(), ts.lag.end());
    const TailPercentile lagTail = tailPercentile(lags);
    const bool valid = lagTail.value <= kMaxLagTailSeconds;

    const int64_t attempted = s.attempted + ts.attempted;
    const int64_t failed = attempted - s.completed - ts.completed;
    const bool correct = s.mismatched + ts.mismatched == 0 &&
                         s.tokensComplete && ts.tokensComplete;

    Json metrics;
    Json detail;
    const auto metric = [&](const std::string &name, double value,
                            const std::string &unit) {
        Json m;
        m.num("value", value).str("unit", unit);
        metrics.obj(name, m);
    };

    if (!args.trace) {
        metric("ttft_p50_ms", median(s.ttft) * 1e3, "ms");
        metric("ttft_tail_ms", ttftTail.value * 1e3, "ms");
        metric("itl_p50_ms", median(s.itl) * 1e3, "ms");
        metric("output_tok_s", s.outputTokS, "1/s");
        metric("prompt_tok_s", s.promptTokS, "1/s");
        metric("slo_attainment", ratio(double(s.sloMet), double(s.attempted)),
               "ratio");
        metric("completed_share",
               ratio(double(s.completed), double(s.attempted)), "ratio");
        metric("setup_s", median(setupSeconds), "s");
        metric("peak_rss_mb", peakRss, "MB");
        Json tails;
        tails.obj("ttft_tail_ms", tailJson(ttftTail))
            .obj("itl_tail_ms", tailJson(itlTail));
        detail.obj("tails", tails);
    } else {
        const softrec::ServeStats &a = traced.after, &b = traced.before;
        const double wall = traced.drainEnd - traced.windowStart;
        const softrec::prof::ScopeStats prefill =
            profiler.statsFor("serve.prefill");
        const softrec::prof::ScopeStats step =
            profiler.statsFor("decode.step");
        const double rows =
            ratio(double(a.tokensGenerated - b.tokensGenerated),
                  double(a.decodeSteps - b.decodeSteps));
        const double ttftP50 = median(ts.ttft);
        metric("serve.submit_us", median(ts.submit) * 1e6, "us");
        metric("serve.batch_rows_mean", rows, "rows");
        metric("serve.batch_fill",
               rows / double(tracedServed->engine->config().maxBatchRows),
               "ratio");
        metric("serve.queue_depth_mean",
               ratio(traced.samples.queueDepthSum,
                     double(traced.samples.count)),
               "count");
        metric("serve.prefilling_rows_mean",
               ratio(traced.samples.prefillingRowsSum,
                     double(traced.samples.count)),
               "rows");
        int64_t accepted = 0;
        for (const auto &r : traced.requests)
            accepted += r->accepted ? 1 : 0;
        metric("serve.accept_ratio",
               ratio(double(accepted), double(ts.attempted)), "ratio");
        metric("serve.prefill_share_of_ttft",
               ratio(ratio(prefill.seconds, double(prefill.calls)), ttftP50),
               "ratio");
        metric("serve.prefill_share_of_wall", ratio(prefill.seconds, wall),
               "ratio");
        metric("serve.decode_share_of_wall", ratio(step.seconds, wall),
               "ratio");
        metric("serve.tail_gaps_in_long_prefill_share",
               tailGapsInLongPrefill(traced, spec,
                                     groupedTailPercentile(ts.itl,
                                                           ts.itlRequest)
                                         .value),
               "ratio");
        metric("kv.bytes_reserved_mb", double(a.kvBytesReserved) / 1e6, "MB");
        metric("kv.blocks_used_ratio",
               ratio(double(traced.samples.maxBlocksInUse),
                     double(a.kvBlocksReserved)),
               "ratio");
        metric("client.lag_tail_ms", lagTail.value * 1e3, "ms");
        metric("client.itl_tail_ms", itlTail.value * 1e3, "ms");
        metric("trace.overhead_ttft_p50_pct",
               100.0 * (ttftP50 / median(s.ttft) - 1.0), "%");
        metric("trace.overhead_itl_p50_pct",
               100.0 * (median(ts.itl) / median(s.itl) - 1.0), "%");
        metric("trace.overhead_output_tok_s_pct",
               100.0 * (ts.outputTokS / s.outputTokS - 1.0), "%");
        for (const char *scope : {"serve.step", "serve.prefill",
                                  "decode.step", "decode.prefill",
                                  "softmax.row"}) {
            const softrec::prof::ScopeStats st = profiler.statsFor(scope);
            metric(std::string("prof.") + scope + "_ms",
                   ratio(st.seconds, double(st.calls)) * 1e3, "ms");
        }
        Json scopes;
        for (const auto &[name, st] : profiler.snapshot()) {
            Json j;
            j.num("seconds", st.seconds)
                .integer("calls", st.calls)
                .integer("bytes_read", int64_t(st.bytesRead))
                .integer("bytes_written", int64_t(st.bytesWritten));
            scopes.obj(name, j);
        }
        detail.obj("profiler", scopes);

        const LayerReport layers = measureLayers(
            softrec::ExecContext{&tracedServed->pool, nullptr},
            tracedServed->model, tracer);
        for (const Metric &m : layers.metrics)
            metric(m.name, m.value, m.unit);
        detail.boolean("accounting_ok", layers.accountingOk)
            .num("accounting_tolerance", kAccountingTolerance);
        if (!layers.accountingOk)
            std::fprintf(stderr,
                         "servebench: warning: replayed layer calls do not "
                         "add up to the one-shot calls within %.0f%%\n",
                         kAccountingTolerance * 100.0);

        std::filesystem::create_directories(args.outDir);
        const std::string path = args.outDir + "/trace-" + spec.name + "-" +
                                 std::to_string(args.seed) + ".json";
        tracer.writeChromeTrace(path);
        detail.str("trace_file", path);
    }

    Json provenance;
    provenance.str("git_sha", args.gitSha)
        .str("source_digest", args.sourceDigest)
        .str("compiler", SERVEBENCH_COMPILER)
        .str("flags", SERVEBENCH_FLAGS)
        .str("build_type", SERVEBENCH_BUILD_TYPE)
        .str("cpu", cpuModel())
        .str("simd", softrec::simdBackendName(softrec::simdBackend()))
        .integer("pool_threads", kPoolThreads)
        .integer("nproc", int64_t(std::thread::hardware_concurrency()));
    Json limits;
    limits.num("ttft_s", spec.ttftLimitSeconds)
        .num("gap_s", spec.gapLimitSeconds);
    std::string setups;
    for (double t : setupSeconds)
        setups += (setups.empty() ? "" : ", ") + std::to_string(t);
    detail.str("workload", spec.name)
        .integer("seed", int64_t(args.seed))
        .num("window_s", window)
        .obj("provenance", provenance)
        .obj("slo_limits", limits)
        .raw("setup_s_samples", "[" + setups + "]")
        .integer("requests_checked", s.checked + ts.checked)
        .integer("requests_mismatched", s.mismatched + ts.mismatched)
        .obj("client_lag", tailJson(lagTail))
        .boolean("valid", valid);
    Json top;
    top.obj("detail", detail);
    std::printf("%s\n", top.str().c_str());

    if (!valid) {
        std::fprintf(stderr,
                     "servebench: invalid run: the client sent %.1f ms "
                     "late at p%.1f (bound %.0f ms)\n",
                     lagTail.value * 1e3, lagTail.percentile,
                     kMaxLagTailSeconds * 1e3);
        return 3;
    }
    Json result;
    result.boolean("correct", correct)
        .integer("attempted", attempted)
        .integer("failed", failed)
        .obj("metrics", metrics);
    std::printf("%s\n", result.str().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace
} // namespace servebench

int
main(int argc, char **argv)
{
    try {
        return servebench::run(servebench::parseArgs(argc, argv));
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "servebench: %s\n", e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "servebench: %s\n", e.what());
        return 1;
    }
}

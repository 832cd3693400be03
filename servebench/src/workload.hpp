/**
 * @file
 * The serving benchmark's model, workloads and load client.
 *
 * One client thread drives a ServeEngine through its public API: it
 * submits every request and drains every stream with tryNext, so no
 * thread is started per request. Closed-loop workloads keep a fixed
 * number of requests outstanding; the open-loop workload sends on a
 * seeded arrival schedule whatever the engine's progress, and times
 * each request from when it was due.
 */

#ifndef SERVEBENCH_WORKLOAD_HPP
#define SERVEBENCH_WORKLOAD_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/exec_context.hpp"
#include "common/rng.hpp"
#include "fp16/half.hpp"
#include "model/decode.hpp"
#include "serve/serve_engine.hpp"
#include "tensor/tensor.hpp"
#include "trace.hpp"

namespace servebench {

//! Fixed model shape: head dimension 64, the paper's.
constexpr int64_t kDModel = 256;
constexpr int64_t kHeads = 4;
constexpr int64_t kDFf = 1024;
constexpr int64_t kLayers = 2;
constexpr uint64_t kWeightSeed = 0x5e7eb5eedULL;
//! Prompts are rows of a fixed embedding table, indexed by seeded
//! token ids, so making a prompt costs a copy, not random draws.
constexpr int64_t kVocab = 4096;
//! Engine concurrency: the serving thread alone, no pool workers;
//! with the client thread that is two threads on a 4-core host. A
//! pool with workers waits at every parallel region for its slowest
//! thread, so on a shared host it measures the other tenants' load
//! (METRICS.md, "Why one compute thread").
constexpr int kPoolThreads = 1;

/** One prompt-length class of a workload. */
struct PromptClass
{
    int64_t minPrompt;   //!< inclusive
    int64_t maxPrompt;   //!< inclusive
    int64_t minGenerate; //!< inclusive
    int64_t maxGenerate; //!< inclusive
    //! Requests of this class in every block of consecutive requests;
    //! the block is the sum over classes, shuffled per block.
    int64_t perBlock;
};

/** A traffic mix and how it is offered. */
struct WorkloadSpec
{
    std::string name;
    bool openLoop = false;
    int64_t outstanding = 0;    //!< closed loop: requests kept in flight
    double ratePerSecond = 0.0; //!< open loop: mean arrival rate
    int64_t tenants = 1;
    std::vector<PromptClass> classes;
    //! Per-request service limits: a request meets them when it
    //! finishes correctly, its TTFT is within ttftLimit and its
    //! longest inter-token gap within gapLimit.
    double ttftLimitSeconds = 0.0;
    double gapLimitSeconds = 0.0;
};

/** The named workload, or nullptr. */
const WorkloadSpec *findWorkload(const std::string &name);

/** Names of every workload, for usage messages. */
std::vector<std::string> workloadNames();

/** Weights and the prompt embedding table, from kWeightSeed. */
struct Model
{
    softrec::DecoderStack stack;
    softrec::Tensor<softrec::Half> vocab; //!< [kVocab, kDModel]
};

Model makeModel();

/** One request of the seeded request sequence. */
struct PlannedRequest
{
    int64_t index = 0;     //!< position in the sequence; < 0 for ramp
    int64_t classIndex = 0;
    int64_t occurrence = 0; //!< index among requests of its class
    int64_t tenant = 0;
    int64_t generate = 0;
    std::vector<int64_t> tokens; //!< prompt token ids
    double dueOffset = 0.0; //!< open loop: seconds after window start
};

/**
 * The seeded request sequence of a workload: the same seed gives the
 * same requests in the same order. Open-loop arrivals are Poisson
 * conditioned on one block of requests per block period, and lengths
 * are stratified within each class, so every run offers nearly the
 * same load and mix.
 */
class RequestPlan
{
  public:
    RequestPlan(const WorkloadSpec &spec, uint64_t seed);

    PlannedRequest next();

  private:
    void refillBlock();

    const WorkloadSpec &spec_;
    softrec::Rng rng_;
    std::vector<int64_t> blockClasses_;
    std::vector<double> blockDue_;
    size_t blockPos_ = 0;
    double blockStart_ = 0.0;
    int64_t index_ = 0;
    std::vector<int64_t> occurrences_;
    std::vector<std::vector<int64_t>> strata_; //!< per class, unused bands
};

/** Embedding rows of `tokens`, as a [tokens, kDModel] prompt. */
softrec::Tensor<softrec::Half> makePrompt(const Model &model,
                                          const std::vector<int64_t> &tokens);

/** What happened to one request the client sent. */
struct RequestRecord
{
    PlannedRequest plan;
    int64_t promptTokens = 0;
    double due = 0.0;         //!< when the request was due to be sent
    double submitStart = 0.0; //!< submit() entry
    double submitEnd = 0.0;   //!< submit() return
    //! How late the client sent: submitStart minus the due time (open
    //! loop) or minus when the client's previous request ended.
    double lag = 0.0;
    bool accepted = false;
    bool finished = false;    //!< stream ended Finished
    double endSeen = 0.0;     //!< when the client saw the stream end
    bool checked = false;     //!< tokens kept for the output check
    bool mismatch = false;    //!< failed the output check
    std::vector<double> receipts;
    std::vector<softrec::Half> tokens; //!< checked requests only
    softrec::ServeSession session;
};

/** Step-boundary state of the engine, sampled by the client. */
struct EngineSamples
{
    double queueDepthSum = 0.0;
    double prefillingRowsSum = 0.0;
    int64_t count = 0;
    int64_t maxBlocksInUse = 0;
};

/** The outcome of one measured window. */
struct RunOutput
{
    double windowStart = 0.0;
    double windowEnd = 0.0;
    double drainEnd = 0.0; //!< when the last request in flight ended
    std::vector<std::unique_ptr<RequestRecord>> requests;
    //! Untimed requests that set the closed loop's slot phases; only
    //! their tokens count, towards output_tok_s.
    std::vector<std::unique_ptr<RequestRecord>> ramp;
    softrec::ServeStats before; //!< engine stats at window start
    softrec::ServeStats after;  //!< engine stats after the drain
    EngineSamples samples;
};

/**
 * Offer `spec` to `engine` for `seconds`, then stop sending and drain
 * what is in flight. Requests chosen by `checkOccurrences` (per
 * class, the occurrences whose tokens are kept) feed the output
 * check. With a tracer, each request's spans are recorded.
 */
RunOutput runWorkload(
    softrec::ServeEngine &engine, const Model &model,
    const WorkloadSpec &spec, uint64_t seed, double seconds,
    const std::vector<std::vector<int64_t>> &checkOccurrences,
    Tracer *tracer);

/**
 * Seed-chosen occurrences to check, per class: one request of every
 * prompt-length class, among the first few of the class (the output
 * check re-runs each on the serial reference, so it is kept small).
 */
std::vector<std::vector<int64_t>> chooseChecked(const WorkloadSpec &spec,
                                                uint64_t seed);

/**
 * Bit-for-bit output check of one finished request against a serial
 * reference built from the same public calls: one-shot runPrefill,
 * then one-row runDecodeStepInto per generated token, on a cache of
 * the engine's default KV format.
 */
bool matchesReference(const softrec::ExecContext &ctx, const Model &model,
                      const RequestRecord &record);

/** Warm-up traffic: short requests, before the window opens. */
void warmUp(softrec::ServeEngine &engine, const Model &model,
            const WorkloadSpec &spec);

} // namespace servebench

#endif // SERVEBENCH_WORKLOAD_HPP

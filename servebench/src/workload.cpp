/**
 * @file
 * The serving benchmark's model, workloads and load client.
 */

#include "workload.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <thread>
#include <utility>

#include "serve/kv_cache.hpp"
#include "serve/serve_config.hpp"
#include "tensor/tensor_ops.hpp"

namespace servebench {

using softrec::Half;
using softrec::Shape;
using softrec::Tensor;

namespace {

// Why each workload exists (BENCHMARK.json and METRICS.md carry the
// same reasons):
//  long_prompt     prefill attention and softmax dominate: the paper's
//                  regime, where softmax/attention kernel work shows;
//  decode_heavy    decode steps, the KV cache, streams and the
//                  scheduler dominate; prefill-attention changes
//                  predict no change here;
//  mixed_arrivals  open-loop arrivals from three tenants: long
//                  prefills share the serving thread with decode, so
//                  head-of-line stalls and admission show. Runnable,
//                  but not in BENCHMARK.json: on the reference host
//                  its medians flip between stalled and unstalled
//                  modes from seed to seed (see METRICS.md).
// The service limits were fixed from the first measurement of the code
// the benchmark was defined on, with one compute thread on a 4-core
// x86-64 host, and are not moved afterwards.
const std::vector<WorkloadSpec> &
allWorkloads()
{
    static const std::vector<WorkloadSpec> specs = [] {
        WorkloadSpec long_prompt;
        long_prompt.name = "long_prompt";
        // One in flight: with two, unchunked prefill gives a TTFT of
        // one prefill or two, decided by a thread race (METRICS.md).
        long_prompt.outstanding = 1;
        long_prompt.classes = {{1536, 2048, 16, 16, 1}};
        long_prompt.ttftLimitSeconds = 8.0;
        long_prompt.gapLimitSeconds = 0.05;

        WorkloadSpec decode_heavy;
        decode_heavy.name = "decode_heavy";
        decode_heavy.outstanding = 16;
        decode_heavy.classes = {{32, 128, 256, 256, 1}};
        decode_heavy.ttftLimitSeconds = 0.5;
        decode_heavy.gapLimitSeconds = 0.25;

        WorkloadSpec mixed;
        mixed.name = "mixed_arrivals";
        mixed.openLoop = true;
        mixed.ratePerSecond = 1.3;
        mixed.tenants = 3;
        mixed.classes = {{64, 256, 32, 64, 9},       // chats
                         {2048, 2048, 16, 16, 1}};   // long prompts
        mixed.ttftLimitSeconds = 8.0;
        mixed.gapLimitSeconds = 6.0;
        return std::vector<WorkloadSpec>{long_prompt, decode_heavy, mixed};
    }();
    return specs;
}

/** Length strata per class; see RequestPlan::next. */
constexpr int64_t kStrata = 4;

/** Uniform integer in band `stratum` of kStrata bands of [lo, hi]. */
int64_t
stratified(softrec::Rng &rng, int64_t lo, int64_t hi, int64_t stratum)
{
    const double width = double(hi - lo + 1) / double(kStrata);
    const int64_t v =
        lo + int64_t(std::floor((double(stratum) + rng.uniform()) * width));
    return std::min(v, hi);
}

/** Seeded Fisher-Yates shuffle. */
void
shuffle(std::vector<int64_t> &v, softrec::Rng &rng)
{
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.uniformInt(uint64_t(i))]);
}

/** chooseChecked picks among the first this many of each class. */
constexpr uint64_t kCheckSpread = 3;

/** Engine-state sampling period of the traced run. */
constexpr double kSamplePeriodSeconds = 0.005;

/** Client poll back-off when a sweep found nothing to do. */
constexpr std::chrono::microseconds kPollBackoff{20};

/** A closed-loop slot whose request was refused retries after this. */
constexpr double kRetryAfterRejectSeconds = 0.001;

/** Warm-up request shape. */
constexpr size_t kWarmUpPrompt = 64;
constexpr int64_t kWarmUpGenerate = 4;

} // namespace

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &spec : allWorkloads())
        if (spec.name == name)
            return &spec;
    return nullptr;
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const WorkloadSpec &spec : allWorkloads())
        names.push_back(spec.name);
    return names;
}

Model
makeModel()
{
    softrec::Rng rng(kWeightSeed);
    Model model{softrec::DecoderStack::random(kDModel, kHeads, kDFf,
                                              kLayers, rng),
                Tensor<Half>(Shape({kVocab, kDModel}))};
    softrec::fillNormal(model.vocab, rng);
    return model;
}

RequestPlan::RequestPlan(const WorkloadSpec &spec, uint64_t seed)
    : spec_(spec), rng_(seed), occurrences_(spec.classes.size(), 0),
      strata_(spec.classes.size())
{
}

void
RequestPlan::refillBlock()
{
    blockClasses_.clear();
    for (size_t c = 0; c < spec_.classes.size(); ++c)
        for (int64_t i = 0; i < spec_.classes[c].perBlock; ++i)
            blockClasses_.push_back(int64_t(c));
    shuffle(blockClasses_, rng_);
    blockPos_ = 0;
    if (!spec_.openLoop)
        return;
    // Exponential gaps normalised to the block period: a Poisson
    // process conditioned on exactly one block of arrivals per period.
    const size_t n = blockClasses_.size();
    const double period = double(n) / spec_.ratePerSecond;
    std::vector<double> cumulative(n + 1);
    double sum = 0.0;
    for (size_t i = 0; i <= n; ++i) {
        sum += -std::log(1.0 - rng_.uniform());
        cumulative[i] = sum;
    }
    blockDue_.resize(n);
    for (size_t i = 0; i < n; ++i)
        blockDue_[i] = blockStart_ + period * cumulative[i] / sum;
    blockStart_ += period;
}

PlannedRequest
RequestPlan::next()
{
    if (blockPos_ == blockClasses_.size())
        refillBlock();
    PlannedRequest request;
    request.index = index_++;
    request.classIndex = blockClasses_[blockPos_];
    if (spec_.openLoop)
        request.dueOffset = blockDue_[blockPos_];
    ++blockPos_;
    const PromptClass &cls = spec_.classes[size_t(request.classIndex)];
    request.occurrence = occurrences_[size_t(request.classIndex)]++;
    request.tenant = int64_t(rng_.uniformInt(uint64_t(spec_.tenants)));
    // Lengths are stratified: each run of kStrata requests of a class
    // draws one prompt and output length from every quantile band, so
    // a run's length mix varies little from seed to seed.
    std::vector<int64_t> &strata = strata_[size_t(request.classIndex)];
    if (strata.empty()) {
        for (int64_t s = 0; s < kStrata; ++s)
            strata.push_back(s);
        shuffle(strata, rng_);
    }
    const int64_t stratum = strata.back();
    strata.pop_back();
    request.generate =
        stratified(rng_, cls.minGenerate, cls.maxGenerate, stratum);
    request.tokens.resize(
        size_t(stratified(rng_, cls.minPrompt, cls.maxPrompt, stratum)));
    for (int64_t &token : request.tokens)
        token = int64_t(rng_.uniformInt(uint64_t(kVocab)));
    return request;
}

Tensor<Half>
makePrompt(const Model &model, const std::vector<int64_t> &tokens)
{
    Tensor<Half> prompt(Shape({int64_t(tokens.size()), kDModel}));
    for (size_t i = 0; i < tokens.size(); ++i)
        std::memcpy(prompt.rowPtr(int64_t(i)), model.vocab.rowPtr(tokens[i]),
                    size_t(kDModel) * sizeof(Half));
    return prompt;
}

std::vector<std::vector<int64_t>>
chooseChecked(const WorkloadSpec &spec, uint64_t seed)
{
    softrec::Rng rng(seed ^ 0xc0ffee0dd5eedULL);
    std::vector<std::vector<int64_t>> picks;
    for (size_t c = 0; c < spec.classes.size(); ++c)
        picks.push_back({int64_t(rng.uniformInt(kCheckSpread))});
    return picks;
}

namespace {

/** Submit one prepared request and start its record. */
std::unique_ptr<RequestRecord>
submitOne(softrec::ServeEngine &engine, PlannedRequest plan,
          Tensor<Half> prompt, double due, bool checked)
{
    auto record = std::make_unique<RequestRecord>();
    record->promptTokens = int64_t(plan.tokens.size());
    record->checked = checked;
    softrec::ServeRequest request;
    request.tenantId = plan.tenant;
    request.prompt = std::move(prompt);
    request.generateTokens = plan.generate;
    record->plan = std::move(plan);
    record->due = due;
    record->submitStart = monotonicSeconds();
    softrec::SubmitResult result = engine.submit(std::move(request));
    record->submitEnd = monotonicSeconds();
    record->accepted = result.decision.accepted;
    if (record->accepted)
        record->session = std::move(result.session);
    return record;
}

/** Spans of one request that has ended, for the traced run. */
void
traceRequest(Tracer &tracer, const RequestRecord &r)
{
    const int64_t id = r.plan.index + 1;
    const double last = r.receipts.empty() ? r.endSeen : r.receipts.back();
    const int64_t root =
        tracer.add("client.request", r.due, std::max(last, r.submitEnd),
                   -1, id);
    tracer.add("serve.submit", r.submitStart, r.submitEnd, root, id);
    if (r.receipts.empty())
        return;
    tracer.add("client.wait_first_token", r.submitEnd, r.receipts.front(),
               root, id);
    tracer.add("client.decode_stream", r.receipts.front(),
               r.receipts.back(), root, id);
}

} // namespace

RunOutput
runWorkload(softrec::ServeEngine &engine, const Model &model,
            const WorkloadSpec &spec, uint64_t seed, double seconds,
            const std::vector<std::vector<int64_t>> &checkOccurrences,
            Tracer *tracer)
{
    RunOutput out;
    RequestPlan plan(spec, seed);
    PlannedRequest next = plan.next();
    Tensor<Half> nextPrompt = makePrompt(model, next.tokens);
    const auto isChecked = [&](const PlannedRequest &p) {
        const std::vector<int64_t> &picks =
            checkOccurrences[size_t(p.classIndex)];
        return std::find(picks.begin(), picks.end(), p.occurrence) !=
               picks.end();
    };

    std::vector<RequestRecord *> active;
    // Closed loop: when each client slot became free to send again.
    std::deque<double> freeSince;
    Tensor<Half> row;

    // Drain every stream that has tokens; returns whether any had.
    const auto sweep = [&] {
        bool progressed = false;
        for (size_t i = 0; i < active.size();) {
            RequestRecord &r = *active[i];
            bool ended = false;
            while (true) {
                const auto got = r.session.stream().tryNext(row);
                if (got == softrec::TokenStream::TryNext::Token) {
                    r.receipts.push_back(monotonicSeconds());
                    if (r.checked)
                        r.tokens.insert(r.tokens.end(), row.data(),
                                        row.data() + kDModel);
                    progressed = true;
                    continue;
                }
                if (got == softrec::TokenStream::TryNext::End) {
                    ended = true;
                    r.endSeen = monotonicSeconds();
                    r.finished = r.session.stream().status() ==
                                 softrec::StreamStatus::Finished;
                }
                break;
            }
            if (!ended) {
                ++i;
                continue;
            }
            r.session = softrec::ServeSession();
            if (!spec.openLoop)
                freeSince.push_back(r.endSeen);
            if (tracer != nullptr && r.plan.index >= 0)
                traceRequest(*tracer, r);
            active[i] = active.back();
            active.pop_back();
            progressed = true;
        }
        return progressed;
    };

    // Ramp: with every slot starting at once, a closed loop of equal
    // output lengths finishes in lockstep, and how each burst of
    // resubmits splits across serve steps is a thread race that makes
    // whole runs differ. Untimed ramp requests whose output lengths
    // step through 1/outstanding .. 1 of the class maximum set one
    // phase per slot instead; the phases persist because every timed
    // request lasts the same number of steps.
    if (!spec.openLoop && spec.outstanding > 1) {
        const PromptClass &cls = spec.classes.front();
        for (int64_t i = 0; i < spec.outstanding; ++i) {
            PlannedRequest ramp;
            ramp.index = -1 - i;
            ramp.generate = std::max<int64_t>(
                1, cls.maxGenerate * (i + 1) / spec.outstanding);
            ramp.tokens.assign(size_t(cls.minPrompt), i);
            Tensor<Half> prompt = makePrompt(model, ramp.tokens);
            std::unique_ptr<RequestRecord> record =
                submitOne(engine, std::move(ramp), std::move(prompt),
                          monotonicSeconds(), false);
            if (!record->accepted)
                throw std::runtime_error("ramp request refused");
            active.push_back(record.get());
            out.ramp.push_back(std::move(record));
        }
        // The window opens once every ramp request is decoding.
        const auto decoding = [&] {
            for (const auto &r : out.ramp)
                if (r->receipts.empty() && r->session.valid())
                    return false;
            return true;
        };
        while (!decoding())
            if (!sweep())
                std::this_thread::sleep_for(kPollBackoff);
    } else if (!spec.openLoop) {
        freeSince.assign(size_t(spec.outstanding), monotonicSeconds());
    }
    out.before = engine.stats();
    out.windowStart = monotonicSeconds();
    out.windowEnd = out.windowStart + seconds;
    double nextSample = out.windowStart;

    const auto send = [&](double due, double lagBase) {
        const bool checked = isChecked(next);
        std::unique_ptr<RequestRecord> record = submitOne(
            engine, std::move(next), std::move(nextPrompt), due, checked);
        record->lag = record->submitStart - lagBase;
        if (!spec.openLoop)
            record->due = record->submitStart;
        if (record->accepted)
            active.push_back(record.get());
        else if (!spec.openLoop)
            freeSince.push_back(record->submitEnd +
                                kRetryAfterRejectSeconds);
        out.requests.push_back(std::move(record));
        next = plan.next();
        nextPrompt = makePrompt(model, next.tokens);
    };

    while (true) {
        double now = monotonicSeconds();
        bool sendingDone = false;
        if (spec.openLoop) {
            while (next.dueOffset < seconds &&
                   out.windowStart + next.dueOffset <= now) {
                const double due = out.windowStart + next.dueOffset;
                send(due, due);
                now = monotonicSeconds();
            }
            sendingDone = next.dueOffset >= seconds;
        } else {
            while (now < out.windowEnd && !freeSince.empty() &&
                   freeSince.front() <= now) {
                const double lagBase = freeSince.front();
                freeSince.pop_front();
                send(now, lagBase);
                now = monotonicSeconds();
            }
            sendingDone = now >= out.windowEnd;
        }
        const bool progressed = sweep();

        if (tracer != nullptr && now >= nextSample) {
            const softrec::ServeStats s = engine.stats();
            out.samples.queueDepthSum += double(s.queueDepth);
            out.samples.prefillingRowsSum += double(s.prefillingRows);
            out.samples.maxBlocksInUse =
                std::max(out.samples.maxBlocksInUse, s.kvBlocksInUse);
            ++out.samples.count;
            nextSample = now + kSamplePeriodSeconds;
        }

        if (sendingDone && active.empty())
            break;
        if (!progressed)
            std::this_thread::sleep_for(kPollBackoff);
    }
    out.drainEnd = monotonicSeconds();
    out.after = engine.stats();
    return out;
}

bool
matchesReference(const softrec::ExecContext &ctx, const Model &model,
                 const RequestRecord &record)
{
    const int64_t dm = kDModel;
    if (!record.finished ||
        int64_t(record.tokens.size()) != record.plan.generate * dm)
        return false;
    const softrec::ServeConfig defaults;
    softrec::KvSlab slab(defaults.kvBlockTokens, dm, 64,
                         defaults.kvDtype);
    softrec::KvCache cache(slab, kLayers);
    const Tensor<Half> prompt = makePrompt(model, record.plan.tokens);
    const Tensor<Half> prefill =
        softrec::runPrefill(ctx, model.stack, prompt, cache);
    Tensor<Half> x(Shape({1, dm}));
    std::memcpy(x.data(), prefill.rowPtr(prefill.shape().dim(0) - 1),
                size_t(dm) * sizeof(Half));
    const std::vector<softrec::KvCache *> caches{&cache};
    softrec::DecodeStepWorkspace ws;
    Tensor<Half> y;
    for (int64_t t = 0; t < record.plan.generate; ++t) {
        softrec::runDecodeStepInto(ctx, model.stack, x, caches, ws, y);
        if (std::memcmp(y.data(), record.tokens.data() + t * dm,
                        size_t(dm) * sizeof(Half)) != 0)
            return false;
        std::swap(x, y);
    }
    return true;
}

void
warmUp(softrec::ServeEngine &engine, const Model &model,
       const WorkloadSpec &spec)
{
    // Short requests, as many as the run keeps in flight: the pool
    // threads, step buffers and KV slab are live before the window
    // opens, without spending set-up time on long prefills.
    const int64_t count = spec.openLoop ? 4 : spec.outstanding;
    std::vector<int64_t> tokens(kWarmUpPrompt);
    for (size_t i = 0; i < tokens.size(); ++i)
        tokens[i] = int64_t(i);
    std::vector<softrec::ServeSession> sessions;
    for (int64_t i = 0; i < count; ++i) {
        softrec::ServeRequest request;
        request.prompt = makePrompt(model, tokens);
        request.generateTokens = kWarmUpGenerate;
        softrec::SubmitResult result = engine.submit(std::move(request));
        if (!result.decision.accepted)
            throw std::runtime_error("warm-up request refused: " +
                                     result.decision.reason);
        sessions.push_back(std::move(result.session));
    }
    Tensor<Half> row;
    for (softrec::ServeSession &session : sessions) {
        while (session.stream().next(row)) {
        }
        if (session.stream().status() != softrec::StreamStatus::Finished)
            throw std::runtime_error("warm-up request did not finish");
    }
}

} // namespace servebench

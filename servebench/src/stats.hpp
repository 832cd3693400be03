/**
 * @file
 * Sample statistics of the serving benchmark: the median, the tail
 * percentile rule, and the extraction of time to first token (TTFT)
 * and inter-token latency (ITL) from token receipt times.
 */

#ifndef SERVEBENCH_STATS_HPP
#define SERVEBENCH_STATS_HPP

#include <cstdint>
#include <vector>

namespace servebench {

/** Median (mean of the two middle values for even counts). */
double median(std::vector<double> samples);

/**
 * The highest percentile a sample supports: the nearest-rank
 * percentile with at least `minBeyond` samples above its rank, capped
 * at `maxPercentile`. `beyond` and `samples` say how many samples lie
 * above the reported value and how many there were. With `samples`
 * <= `minBeyond` no percentile qualifies; the maximum is reported
 * with `supported` false.
 */
struct TailPercentile
{
    double value = 0.0;
    double percentile = 0.0;
    int64_t beyond = 0;
    int64_t samples = 0;
    bool supported = false;
};

/** Default cap: beyond p99.9 a run's tail is one-off host noise. */
constexpr double kMaxTailPercentile = 99.9;

TailPercentile tailPercentile(std::vector<double> samples,
                              int64_t minBeyond = 10,
                              double maxPercentile = kMaxTailPercentile);

/**
 * tailPercentile for correlated samples: `groups[i]` names the source
 * of `samples[i]` (the request of an inter-token gap), and the samples
 * beyond the reported value must come from at least `minBeyond`
 * distinct groups. A request's gaps share its moment on the host, so
 * one slow stretch would otherwise supply all ten samples by itself.
 * With every group distinct this is tailPercentile.
 */
TailPercentile groupedTailPercentile(const std::vector<double> &samples,
                                     const std::vector<int64_t> &groups,
                                     int64_t minBeyond = 10,
                                     double maxPercentile =
                                         kMaxTailPercentile);

/** A weighted point in time (a token, a prefilled prompt). */
struct Event
{
    double at = 0.0;
    double weight = 0.0;
};

/**
 * Rate of weighted events between the first and the last event in
 * [start, end): the summed weight of every event after the first,
 * over the time between them, so a window edge that cuts a request
 * in two does not quantise the rate. With fewer than two events the
 * window's total weight over its length.
 */
double eventRate(std::vector<Event> events, double start, double end);

/** Latencies of one request, from the times its tokens arrived. */
struct RequestLatency
{
    double ttft = 0.0;          //!< first token minus due time
    std::vector<double> gaps;   //!< consecutive token gaps
    double maxGap = 0.0;        //!< 0 with fewer than two tokens
};

/**
 * TTFT and ITL of one request. `due` is when the request was due to
 * be sent; `receipts` the client's receipt times of its tokens, in
 * order. Requires at least one receipt.
 */
RequestLatency requestLatency(double due,
                              const std::vector<double> &receipts);

} // namespace servebench

#endif // SERVEBENCH_STATS_HPP

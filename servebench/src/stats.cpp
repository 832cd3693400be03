/**
 * @file
 * Sample statistics of the serving benchmark.
 */

#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

namespace servebench {

double
median(std::vector<double> samples)
{
    if (samples.empty())
        throw std::invalid_argument("median of an empty sample");
    const size_t mid = samples.size() / 2;
    std::nth_element(samples.begin(), samples.begin() + mid,
                     samples.end());
    const double upper = samples[mid];
    if (samples.size() % 2 == 1)
        return upper;
    const double lower =
        *std::max_element(samples.begin(), samples.begin() + mid);
    return 0.5 * (lower + upper);
}

TailPercentile
tailPercentile(std::vector<double> samples, int64_t minBeyond,
               double maxPercentile)
{
    std::vector<int64_t> groups(samples.size());
    for (size_t i = 0; i < groups.size(); ++i)
        groups[i] = int64_t(i);
    return groupedTailPercentile(samples, groups, minBeyond, maxPercentile);
}

TailPercentile
groupedTailPercentile(const std::vector<double> &samples,
                      const std::vector<int64_t> &groups, int64_t minBeyond,
                      double maxPercentile)
{
    if (samples.size() != groups.size())
        throw std::invalid_argument("one group per sample");
    if (samples.empty())
        throw std::invalid_argument("tail percentile of an empty sample");
    std::vector<size_t> order(samples.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](size_t a, size_t b) { return samples[a] < samples[b]; });
    const int64_t n = int64_t(samples.size());
    const int64_t capped =
        int64_t(std::ceil(maxPercentile / 100.0 * double(n) - 1e-9));
    // Walk down from the largest sample until the samples above rank
    // `rank` span minBeyond groups.
    std::unordered_set<int64_t> seen;
    int64_t rank = n;
    while (rank >= 1 && int64_t(seen.size()) < minBeyond) {
        seen.insert(groups[order[size_t(rank - 1)]]);
        --rank;
    }
    TailPercentile tail;
    tail.samples = n;
    rank = std::min(rank, capped);
    if (rank < 1 || int64_t(seen.size()) < minBeyond) {
        tail.value = samples[order.back()];
        tail.percentile = 100.0;
        return tail;
    }
    tail.value = samples[order[size_t(rank - 1)]];
    tail.percentile = 100.0 * double(rank) / double(n);
    tail.beyond = n - rank;
    tail.supported = true;
    return tail;
}

double
eventRate(std::vector<Event> events, double start, double end)
{
    if (!(end > start))
        throw std::invalid_argument("event rate over an empty window");
    std::erase_if(events, [&](const Event &e) {
        return e.at < start || e.at >= end;
    });
    std::sort(events.begin(), events.end(),
              [](const Event &a, const Event &b) { return a.at < b.at; });
    double weight = 0.0;
    for (size_t i = 1; i < events.size(); ++i)
        weight += events[i].weight;
    const double span =
        events.size() < 2 ? 0.0 : events.back().at - events.front().at;
    if (span > 0.0)
        return weight / span;
    if (!events.empty())
        weight += events.front().weight;
    return weight / (end - start);
}

RequestLatency
requestLatency(double due, const std::vector<double> &receipts)
{
    if (receipts.empty())
        throw std::invalid_argument("request latency needs a token");
    RequestLatency latency;
    latency.ttft = receipts.front() - due;
    latency.gaps.reserve(receipts.size() - 1);
    for (size_t i = 1; i < receipts.size(); ++i) {
        const double gap = receipts[i] - receipts[i - 1];
        latency.gaps.push_back(gap);
        latency.maxGap = std::max(latency.maxGap, gap);
    }
    return latency;
}

} // namespace servebench

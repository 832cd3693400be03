/**
 * @file
 * In-memory span recorder.
 */

#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace servebench {

namespace {

int
threadNumber()
{
    static std::atomic<int> next{0};
    thread_local const int number = next.fetch_add(1);
    return number;
}

} // namespace

double
monotonicSeconds()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - epoch)
        .count();
}

int64_t
Tracer::begin(const char *name, int64_t parent, int64_t request)
{
    Span span;
    span.name = name;
    span.parent = parent;
    span.request = request;
    span.thread = threadNumber();
    span.start = monotonicSeconds();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    return int64_t(spans_.size()) - 1;
}

void
Tracer::end(int64_t span)
{
    const double at = monotonicSeconds();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.at(size_t(span)).end = at;
}

int64_t
Tracer::add(const char *name, double start, double end, int64_t parent,
            int64_t request)
{
    Span span;
    span.name = name;
    span.start = start;
    span.end = end;
    span.parent = parent;
    span.request = request;
    span.thread = threadNumber();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    return int64_t(spans_.size()) - 1;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

void
Tracer::writeChromeTrace(const std::string &path) const
{
    const std::vector<Span> all = spans();
    const std::vector<double> self = selfSeconds(all);
    FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        throw std::runtime_error("cannot write trace file " + path);
    std::fprintf(out, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
    for (size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::fprintf(out,
                     "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %zu, \"parent\": %lld, "
                     "\"request\": %lld, \"self_us\": %.3f}}",
                     i == 0 ? "" : ",", s.name.c_str(), s.thread,
                     s.start * 1e6, (s.end - s.start) * 1e6, i,
                     (long long)s.parent, (long long)s.request,
                     self[i] * 1e6);
    }
    std::fprintf(out, "\n]}\n");
    if (std::fclose(out) != 0)
        throw std::runtime_error("cannot finish trace file " + path);
}

std::vector<double>
selfSeconds(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> covered(
        spans.size());
    for (const Span &child : spans) {
        if (child.parent < 0)
            continue;
        const Span &parent = spans.at(size_t(child.parent));
        const double lo = std::max(child.start, parent.start);
        const double hi = std::min(child.end, parent.end);
        if (hi > lo)
            covered[size_t(child.parent)].emplace_back(lo, hi);
    }
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        std::vector<std::pair<double, double>> &runs = covered[i];
        std::sort(runs.begin(), runs.end());
        double union_len = 0.0;
        double reach = spans[i].start;
        for (const auto &[lo, hi] : runs) {
            const double from = std::max(lo, reach);
            if (hi > from) {
                union_len += hi - from;
                reach = hi;
            }
        }
        self[i] = (spans[i].end - spans[i].start) - union_len;
    }
    return self;
}

} // namespace servebench

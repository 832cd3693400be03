/**
 * @file
 * In-memory span recorder for the traced run. Spans are recorded by
 * the benchmark around its own calls into the program's public
 * functions (nothing inside src/ is instrumented), kept in memory and
 * written once at exit as a Chrome trace-event file, which
 * chrome://tracing and Perfetto open offline.
 */

#ifndef SERVEBENCH_TRACE_HPP
#define SERVEBENCH_TRACE_HPP

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace servebench {

/**
 * Seconds on the steady clock since the first call in this process;
 * every timestamp of the benchmark is taken on this clock.
 */
double monotonicSeconds();

/** One timed interval, in monotonicSeconds(). */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int64_t parent = -1;  //!< index of the causing span, -1 for roots
    int64_t request = 0;  //!< request id shared by a request's spans
    int thread = 0;       //!< small per-process thread number
};

/** Thread-safe span sink. */
class Tracer
{
  public:
    Tracer() = default;

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Open a span on the calling thread; returns its index. */
    int64_t begin(const char *name, int64_t parent = -1,
                  int64_t request = 0);
    /** Close a span opened by begin(). */
    void end(int64_t span);
    /** Add a span the caller timed with monotonicSeconds(). */
    int64_t add(const char *name, double start, double end,
                int64_t parent = -1, int64_t request = 0);

    /** Copy of every span recorded so far. */
    std::vector<Span> spans() const;

    /** Write every span as Chrome trace-event JSON. */
    void writeChromeTrace(const std::string &path) const;

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_; //!< guarded by mutex_
};

/** RAII begin()/end() pair; inert when the tracer is null. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const char *name, int64_t parent = -1,
               int64_t request = 0)
        : tracer_(tracer),
          id_(tracer ? tracer->begin(name, parent, request) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (tracer_ != nullptr)
            tracer_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int64_t id() const { return id_; }

  private:
    Tracer *tracer_;
    int64_t id_;
};

/**
 * Self time of every span: its duration minus the part of it that
 * the union of its direct children covers (children running in
 * parallel on several threads are counted once).
 */
std::vector<double> selfSeconds(const std::vector<Span> &spans);

} // namespace servebench

#endif // SERVEBENCH_TRACE_HPP

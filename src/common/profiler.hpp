/**
 * @file
 * Low-overhead kernel profiler: named scopes recording wall time,
 * byte traffic (reads/writes issued by each functional kernel) and
 * arithmetic work, with race-free aggregation under the ThreadPool.
 *
 * Usage: attach a Profiler to an ExecContext (`ctx.profiler = &prof`)
 * and wrap each kernel body in a `prof::Scope`. Chunk bodies report
 * traffic through `addRead`/`addWrite` and work through `addFlops`,
 * which accumulate into a cache-line-padded per-thread slot (indexed
 * by currentThreadSlot()) — no atomics or locks on the hot path. The
 * Scope destructor merges the slots into the Profiler under a mutex;
 * the pool's completion handshake orders every worker's slot writes
 * before the merge, so the whole scheme is clean under
 * ThreadSanitizer.
 *
 * When no profiler is attached (`ctx.profiler == nullptr`, the
 * default) a Scope is inert: no clock read, no allocation, and
 * `active()` is false so instrumented hot loops skip the counter
 * calls entirely.
 *
 * Traffic semantics: counters record the *unique operand bytes* a
 * kernel invocation touches (inputs read once, outputs written once),
 * mirroring the modeled DRAM traffic of `src/sim` under the paper's
 * on-chip-staging assumption — not the raw number of load/store
 * instructions. See docs/ARCHITECTURE.md "Observability".
 */

#ifndef SOFTREC_COMMON_PROFILER_HPP
#define SOFTREC_COMMON_PROFILER_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/exec_context.hpp"

namespace softrec {
namespace prof {

/** Aggregated totals for one named scope. */
struct ScopeStats
{
    double seconds = 0.0;       //!< summed wall time of timed scopes
    uint64_t bytesRead = 0;     //!< operand bytes read
    uint64_t bytesWritten = 0;  //!< operand bytes written
    uint64_t flops = 0;         //!< arithmetic operations performed
    int64_t calls = 0;          //!< scope entries (kernel invocations)
    int maxThreads = 1;         //!< widest concurrency seen
};

/**
 * Aggregation sink. Thread-safe: merge/snapshot/reset may be called
 * concurrently (Scope destructors merge from whichever thread runs
 * them). Scopes hold a pointer to the Profiler, so it must outlive
 * every ExecContext that references it.
 */
class Profiler
{
  public:
    /** Drop all accumulated stats. */
    void reset();

    /** Copy of all per-scope totals, keyed (and sorted) by name. */
    std::map<std::string, ScopeStats> snapshot() const;

    /** Totals for one scope; default ScopeStats if never entered. */
    ScopeStats statsFor(const std::string &name) const;

    /**
     * Record `count` occurrences of a named event (admission-mode
     * transitions, stream cancellations, …): bumps the scope's call
     * counter with zero time and zero traffic, so events share the
     * report plumbing with kernel scopes. `name` must outlive the
     * profiler (string literals in practice).
     */
    void addEvent(const char *name, int64_t count = 1);

  private:
    friend class Scope;
    void merge(const char *name, const ScopeStats &delta);

    mutable std::mutex mutex_;
    std::map<std::string, ScopeStats> stats_;
};

/**
 * RAII scope: construction notes the start time, destruction merges
 * elapsed wall time plus the per-thread traffic slots into the
 * context's profiler. A BytesOnly scope merges traffic and call count
 * but zero seconds — used for the fused-LS/GS byte attribution inside
 * GEMM epilogues/prologues, whose time is already counted by the
 * enclosing GEMM scope.
 *
 * `name` must outlive the scope (string literals in practice).
 */
class Scope
{
  public:
    enum class Kind { Timed, BytesOnly };

    Scope(const ExecContext &ctx, const char *name,
          Kind kind = Kind::Timed);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** True when a profiler is attached and counters are recorded. */
    bool active() const { return profiler_ != nullptr; }

    /** Credit `bytes` of operand reads to the calling thread's slot. */
    void addRead(uint64_t bytes)
    {
        if (profiler_ != nullptr)
            slots_[size_t(currentThreadSlot())].read += bytes;
    }

    /** Credit `bytes` of operand writes to the calling thread's slot. */
    void addWrite(uint64_t bytes)
    {
        if (profiler_ != nullptr)
            slots_[size_t(currentThreadSlot())].written += bytes;
    }

    /**
     * Credit `flops` arithmetic operations (a multiply-add counts as
     * two) to the calling thread's slot.
     */
    void addFlops(uint64_t flops)
    {
        if (profiler_ != nullptr)
            slots_[size_t(currentThreadSlot())].flops += flops;
    }

  private:
    /**
     * Padded to a cache line so two threads bumping adjacent slots
     * never false-share.
     */
    struct alignas(64) Slot
    {
        uint64_t read = 0;
        uint64_t written = 0;
        uint64_t flops = 0;
    };

    Profiler *profiler_ = nullptr; //!< nullptr = inert scope
    const char *name_ = nullptr;
    Kind kind_ = Kind::Timed;
    int threads_ = 1;
    std::chrono::steady_clock::time_point start_;
    std::vector<Slot> slots_;
};

/**
 * Count an event against the context's profiler (inert, like Scope,
 * when none is attached).
 */
inline void
event(const ExecContext &ctx, const char *name, int64_t count = 1)
{
    if (ctx.profiler != nullptr)
        ctx.profiler->addEvent(name, count);
}

} // namespace prof
} // namespace softrec

#endif // SOFTREC_COMMON_PROFILER_HPP

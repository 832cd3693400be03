/**
 * @file
 * Machine-readable benchmark reports: every bench writes a
 * `BENCH_<name>.json` so the perf trajectory is tracked across PRs
 * (validated by tools/check_bench_json.py).
 *
 * Schema "softrec-bench-v1":
 *
 *     {
 *       "schema": "softrec-bench-v1",
 *       "name": "<bench name>",
 *       "config": { "<key>": <string|number|bool>, ... },
 *       "kernels": [
 *         { "name": "<scope>", "ms": <number>,
 *           "bytes_read": <integer>, "bytes_written": <integer>,
 *           "calls": <integer>, "threads": <integer>,
 *           "gflops": <number> }, ...
 *       ],
 *       "derived": { "<key>": <number>, ... }
 *     }
 *
 * `gflops` (achieved GFLOP/s over the row's time) is present only on
 * rows that counted arithmetic work and took time. All numbers are
 * emitted with std::to_chars, so the output is locale-independent by
 * construction.
 */

#ifndef SOFTREC_COMMON_BENCH_REPORT_HPP
#define SOFTREC_COMMON_BENCH_REPORT_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/profiler.hpp"

namespace softrec {

/** One per-kernel row of a benchmark report. */
struct BenchKernelRow
{
    std::string name;
    double ms = 0.0;
    uint64_t bytesRead = 0;
    uint64_t bytesWritten = 0;
    int64_t calls = 0;
    int threads = 1;
    uint64_t flops = 0; //!< arithmetic work; 0 = not counted

    /** Row carrying one profiler scope's totals under `name`. */
    static BenchKernelRow fromScope(std::string name,
                                    const prof::ScopeStats &stats);
};

/** Builder for one BENCH_<name>.json document. */
class BenchReport
{
  public:
    explicit BenchReport(std::string name);

    /** Record a config entry (insertion order is preserved). */
    void setConfig(const std::string &key, const std::string &value);
    void setConfig(const std::string &key, const char *value);
    void setConfig(const std::string &key, int64_t value);
    void setConfig(const std::string &key, double value);
    void setConfig(const std::string &key, bool value);

    /** Append one kernel row. */
    void addKernel(const BenchKernelRow &row);

    /** Append every scope of a profiler snapshot, sorted by name. */
    void addKernels(const prof::Profiler &profiler);

    /** Record a derived metric (speedup, traffic ratio, ...). */
    void setDerived(const std::string &key, double value);

    /** Render the JSON document (trailing newline included). */
    std::string render() const;

    /** Render to `path`; warns and returns false on I/O failure. */
    bool writeFile(const std::string &path) const;

    /**
     * Conventional output path: `BENCH_<name>.json`, placed under
     * $SOFTREC_BENCH_DIR when that is set (CI points it at its build
     * tree, so smoke runs never overwrite the canonical reports
     * committed at the repo root).
     */
    std::string defaultPath() const;

  private:
    std::string name_;
    //! key -> already-rendered JSON value
    std::vector<std::pair<std::string, std::string>> config_;
    std::vector<BenchKernelRow> kernels_;
    std::vector<std::pair<std::string, double>> derived_;
};

/** Locale-independent shortest-round-trip JSON number. */
std::string jsonNumber(double value);

/** JSON string literal, quotes included. */
std::string jsonQuote(const std::string &text);

} // namespace softrec

#endif // SOFTREC_COMMON_BENCH_REPORT_HPP

/**
 * @file
 * KV-cached decode attention implementation.
 *
 * Bit-identity contract with the prefill path (gemmRun + rowSoftmaxRun
 * + gemmRun on the full prefix):
 *
 *  - scores: fp32 accumulation in ascending d per element, then the
 *    scale epilogue, then an fp16 store — exactly the per-element
 *    order of the packed GEMM micro-kernel (which accumulates
 *    k-ascending whatever the tiling) and its epilogue/store.
 *  - softmax: safeSoftmax (kernels/softmax_row.hpp), the call
 *    rowSoftmaxRun makes per row. A causal prefill row runs it over
 *    its first i + 1 entries, exactly the context here, and stores
 *    zeros for the masked tail (were the tail computed, its
 *    exp(-inf) = +0 terms would leave the fp32 sum's bits unchanged).
 *  - output: fp32 accumulation in ascending key order per element —
 *    the micro-kernel's k-ascending order for the P.V GEMM, which
 *    stops each strip at its last row's diagonal; the p = 0 terms
 *    that strip still adds past a row's own diagonal are bit-level
 *    no-ops, so its depth matches the context here.
 *
 * All Half<->float conversions use the batch converters, which are
 * bit-identical to scalar conversion on every backend.
 */

#include "kernels/decode_attention.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "common/profiler.hpp"
#include "kernels/kernel_common.hpp"
#include "kernels/softmax_row.hpp"

namespace softrec {

void
decodeAttendRun(const ExecContext &ctx, const DecodeAttendDesc &desc,
                const Half *q_row, const KvRowsView &k,
                const KvRowsView &v, Half *out,
                DecodeAttendWorkspace *ws)
{
    const int64_t dh = desc.dHead;
    const int64_t context = k.rows;
    SOFTREC_ASSERT(dh > 0 && context > 0 && v.rows == context,
                   "decode attention needs matching K/V contexts "
                   "(k=%lld, v=%lld)", (long long)context,
                   (long long)v.rows);
    SOFTREC_ASSERT(desc.headOffset >= 0 &&
                   desc.headOffset + dh <= k.rowWidth &&
                   k.rowWidth == v.rowWidth,
                   "head slice outside the cached row");
    prof::Scope scope(ctx, "decode.attend");
    // The fp16 score-row staging below (score store -> softmax read
    // -> probability store -> P.V read) is the same four crossings
    // the batch path attributes to its softmax.* scopes, so it gets
    // the same byte-only attribution here; without it the decode /
    // prefill traffic ratios are skewed in decode's favour.
    std::optional<prof::Scope> row_scope;
    if (scope.active()) {
        scope.addRead(uint64_t(dh) * kFp16Bytes +              // q
                      uint64_t(2 * context * dh) *
                          uint64_t(k.elemBytes()));            // K, V
        scope.addWrite(uint64_t(dh) * kFp16Bytes);
        // softrec-lint: allow(hot-path-alloc) — profiling-only
        // branch; a disabled profiler never reaches this emplace.
        row_scope.emplace(ctx, "softmax.row.decode",
                          prof::Scope::Kind::BytesOnly);
        row_scope->addWrite(uint64_t(2 * context) * kFp16Bytes);
        row_scope->addRead(uint64_t(2 * context) * kFp16Bytes);
    }

    DecodeAttendWorkspace local;
    DecodeAttendWorkspace &w = ws != nullptr ? *ws : local;
    w.prepare(dh, context);
    std::vector<float> &qf = w.qf;
    std::vector<float> &lane = w.lane;
    std::vector<float> &row = w.row;
    std::vector<Half> &row_h = w.rowH;
    halfToFloat(q_row, qf.data(), dh);

    // Scores: q . K^T with the scale epilogue, stored through fp16.
    for (int64_t pos = 0; pos < context; ++pos) {
        k.loadRow(pos, desc.headOffset, dh, lane.data());
        float acc = 0.0f;
        for (int64_t d = 0; d < dh; ++d)
            acc += qf[size_t(d)] * lane[size_t(d)];
        if (desc.scale != 1.0)
            acc *= float(desc.scale);
        row[size_t(pos)] = acc;
    }
    floatToHalf(row.data(), row_h.data(), context);

    // Safe softmax over the score row, exactly as rowSoftmaxRun.
    halfToFloat(row_h.data(), row.data(), context);
    const SoftmaxStats st = safeSoftmax(row.data(), context);
    floatToHalf(row.data(), row_h.data(), context);
    SOFTREC_CHECK(st.d > 0.0f || st.m == kNegInf,
                  "decode attention normalizer d = %f must be positive "
                  "(the current token always attends to itself)",
                  double(st.d));

    // Output: P . V in ascending key order per output element.
    halfToFloat(row_h.data(), row.data(), context);
    std::vector<float> &acc = w.acc;
    std::fill(acc.begin(), acc.end(), 0.0f);
    for (int64_t pos = 0; pos < context; ++pos) {
        v.loadRow(pos, desc.headOffset, dh, lane.data());
        const float p = row[size_t(pos)];
        for (int64_t d = 0; d < dh; ++d)
            acc[size_t(d)] += p * lane[size_t(d)];
    }
    floatToHalf(acc.data(), out, dh);
}

} // namespace softrec

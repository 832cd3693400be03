/**
 * @file
 * Streaming-attention implementation.
 *
 * Bit-identity contract between the two entry points: both fold key
 * tiles of kStreamKeyTile positions in ascending order, and for each
 * tile run the *same* update sequence (onlineTileUpdate below):
 *
 *  - scores: fp32 accumulation in ascending d per element, then the
 *    conditional scale multiply — the per-element order of the packed
 *    GEMM micro-kernel and of decodeAttendRun's score loop;
 *  - tile max, m_new = max(m, tile_max); a tile whose running max is
 *    still -inf is skipped (guards exp(-inf - -inf));
 *  - rescale = exp(m - m_new) applied to d and (when != 1) to the
 *    accumulator, then e_j = exp(s_j - m_new) accumulated j-ascending
 *    into d and j-outer / d-inner into the accumulator;
 *  - epilogue: one reciprocal inv = 1/d multiplied into the fp32
 *    accumulator (division-free inner loop), then the fp16 store.
 *
 * The decode kernel forms its scores and P.V sums with the shared
 * decodeScores / decodeAccumulate loops (kernels/decode_attention.hpp),
 * which read the cached K and V in place with positions or d in SIMD
 * lanes and keep the per-element order above, so the bits match the
 * prefill kernel's micro-kernel scores and scalar P.V loop.
 *
 * A causally masked prefill row stops its tile sweep at the diagonal,
 * which is exactly the ragged final tile a decode step of the same
 * context sees — so streaming prefill row i and streaming decode at
 * context i+1 produce identical bits, and incremental decode through
 * decodeAttendStreamRun is bit-identical to full-prefix streaming
 * recompute (tests/test_streaming_attention.cpp).
 */

#include "kernels/streaming_attention.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "common/profiler.hpp"
#include "kernels/kernel_common.hpp"
#include "kernels/micro_gemm.hpp"
#include "kernels/softmax_row.hpp"

namespace softrec {

const char *
attentionBackendName(AttentionBackend backend)
{
    switch (backend) {
      case AttentionBackend::Recomposed:
        return "recomposed";
      case AttentionBackend::Streaming:
        return "streaming";
    }
    return "?";
}

AttentionBackend
attentionBackendFromEnv()
{
    const char *env = std::getenv("SOFTREC_ATTENTION");
    if (env == nullptr || *env == '\0')
        return AttentionBackend::Recomposed;
    if (std::strcmp(env, "recomposed") == 0)
        return AttentionBackend::Recomposed;
    if (std::strcmp(env, "streaming") == 0)
        return AttentionBackend::Streaming;
    fatal("SOFTREC_ATTENTION='%s' is invalid: expected 'recomposed' "
          "or 'streaming'; unset it to use the default (recomposed)",
          env);
}

namespace {

/**
 * Fold one w-wide tile of scaled scores into a row's running
 * (m, d, acc) state. `add_pv(p, acc)` adds p[j] * V[j] to acc for the
 * tile's positions j ascending. Both kernels call exactly this, which
 * is what makes their outputs bit-identical for the same
 * (q, K, V, context).
 */
template <typename AddPv>
inline void
onlineTileUpdate(float *SOFTREC_RESTRICT s, int64_t w, int64_t dh,
                 float &m, float &d, float *SOFTREC_RESTRICT acc,
                 AddPv &&add_pv)
{
    float rescale = 1.0f;
    if (!onlineFold(s, w, m, d, rescale))
        return; // every score so far is -inf; nothing to accumulate
    if (rescale != 1.0f) {
        for (int64_t dd = 0; dd < dh; ++dd)
            acc[dd] *= rescale;
    }
    add_pv(s, acc);
}

/**
 * Normalize and store one finished row: the single division of the
 * whole row, folded into the epilogue as a reciprocal multiply. A row
 * whose every score was -inf (m still -inf, d == 0) stores zeros,
 * matching decodeAttendRun's fully-masked behaviour.
 */
inline void
storeRow(float *SOFTREC_RESTRICT acc, int64_t dh, float m, float d,
         Half *out)
{
    SOFTREC_CHECK(d > 0.0f || m == kNegInf,
                  "streaming attention normalizer d = %f must be "
                  "positive for a row with any finite score",
                  double(d));
    if (d > 0.0f) {
        const float inv = 1.0f / d;
        for (int64_t dd = 0; dd < dh; ++dd)
            acc[dd] *= inv;
    } else {
        for (int64_t dd = 0; dd < dh; ++dd)
            acc[dd] = 0.0f;
    }
    floatToHalf(acc, out, dh);
}

/** Query strip height (rows per parallelFor chunk). */
constexpr int64_t kStreamQueryTile = 64;

} // namespace

void
streamingAttentionRun(const ExecContext &ctx,
                      const StreamingAttentionDesc &desc,
                      const Tensor<Half> &q, const Tensor<Half> &k,
                      const Tensor<Half> &v, Tensor<Half> &out)
{
    const int64_t L = desc.seqLen;
    const int64_t kv = desc.kvLen;
    const int64_t dh = desc.dHead;
    SOFTREC_ASSERT(L > 0 && kv > 0 && dh > 0,
                   "streaming attention has an empty problem");
    SOFTREC_ASSERT(q.shape() == Shape({L, dh}) &&
                   k.shape() == Shape({kv, dh}) &&
                   v.shape() == Shape({kv, dh}) &&
                   out.shape() == Shape({L, dh}),
                   "streaming attention operand shapes inconsistent "
                   "with the descriptor");
    // Causal queries are the last L of the kv positions: row i
    // attends positions [0, i + diag_off].
    const int64_t diag_off = kv - L;
    SOFTREC_ASSERT(!desc.causalMask || diag_off >= 0,
                   "causal streaming attention needs kvLen (%lld) >= "
                   "seqLen (%lld)", (long long)kv, (long long)L);
    // Unique-operand traffic: K and V are packed (read) once up front
    // on the submitting thread; per-strip q reads and output writes
    // are credited by whichever thread runs the strip. There is no
    // score-matrix term — that absence is the measured win.
    prof::Scope scope(ctx, "sda.stream");
    if (scope.active())
        scope.addRead(uint64_t(2 * kv * dh) * kFp16Bytes); // K, V

    // Pack K once into one fp32 panel per key tile, laid out
    // [dHead][kStreamKeyTile] (the gemm.cpp transposeB scatter), so
    // the micro-kernel streams it contiguously; ragged tail columns
    // are zero-padded and never consumed. V is converted once into fp32
    // rows shared read-only by every strip.
    const int64_t tiles = ceilDiv(kv, kStreamKeyTile);
    std::vector<float> kpack(size_t(tiles) * size_t(dh) *
                             size_t(kStreamKeyTile), 0.0f);
    std::vector<float> krow(size_t(dh), 0.0f);
    for (int64_t j = 0; j < kv; ++j) {
        halfToFloat(k.rowPtr(j), krow.data(), dh);
        float *panel = &kpack[size_t((j / kStreamKeyTile) * dh *
                                     kStreamKeyTile)];
        const int64_t jj = j % kStreamKeyTile;
        for (int64_t kk = 0; kk < dh; ++kk)
            panel[kk * kStreamKeyTile + jj] = krow[kk];
    }
    std::vector<float> vpack(size_t(kv) * size_t(dh));
    for (int64_t j = 0; j < kv; ++j)
        halfToFloat(v.rowPtr(j), &vpack[size_t(j * dh)], dh);

    // Parallel over query strips: every row's (m, d, acc) evolution is
    // row-local, so strip boundaries are invisible in the result bits
    // and the output is bit-identical for any thread count.
    const int64_t strips = ceilDiv(L, kStreamQueryTile);
    parallelFor(ctx, 0, strips, 1, [&](int64_t s0, int64_t s1) {
        std::vector<float> qf(size_t(kStreamQueryTile) * size_t(dh));
        std::vector<float> sbuf(size_t(kStreamQueryTile) *
                                size_t(kStreamKeyTile));
        std::vector<float> accbuf(size_t(kStreamQueryTile) *
                                  size_t(dh));
        std::vector<float> mbuf(size_t(kStreamQueryTile), kNegInf);
        std::vector<float> dbuf(size_t(kStreamQueryTile), 0.0f);
        for (int64_t strip = s0; strip < s1; ++strip) {
            const int64_t r0 = strip * kStreamQueryTile;
            const int64_t rh = std::min(kStreamQueryTile, L - r0);
            if (scope.active()) {
                scope.addRead(uint64_t(rh * dh) * kFp16Bytes);
                scope.addWrite(uint64_t(rh * dh) * kFp16Bytes);
            }
            for (int64_t i = 0; i < rh; ++i)
                halfToFloat(q.rowPtr(r0 + i), &qf[size_t(i * dh)], dh);
            std::fill(accbuf.begin(), accbuf.end(), 0.0f);
            std::fill(mbuf.begin(), mbuf.end(), kNegInf);
            std::fill(dbuf.begin(), dbuf.end(), 0.0f);

            // The strip's tile sweep stops at its last row's context;
            // each row additionally clamps its own consumption to the
            // diagonal, which is exactly the ragged-tile shape a
            // decode step of the same context sees.
            const int64_t strip_kv =
                desc.causalMask ? std::min(kv, r0 + rh + diag_off) : kv;
            for (int64_t t0 = 0; t0 < strip_kv; t0 += kStreamKeyTile) {
                const int64_t w_full =
                    std::min(kStreamKeyTile, kv - t0);
                microGemm(qf.data(), dh,
                          &kpack[size_t((t0 / kStreamKeyTile) * dh *
                                        kStreamKeyTile)],
                          kStreamKeyTile, sbuf.data(), kStreamKeyTile,
                          rh, w_full, dh);
                if (desc.scale != 1.0) {
                    for (int64_t i = 0; i < rh; ++i) {
                        float *sr = &sbuf[size_t(i * kStreamKeyTile)];
                        for (int64_t j = 0; j < w_full; ++j)
                            sr[j] *= float(desc.scale);
                    }
                }
                for (int64_t i = 0; i < rh; ++i) {
                    const int64_t valid = desc.causalMask
                        ? std::min(r0 + i + 1 + diag_off, kv)
                        : kv;
                    if (t0 >= valid)
                        continue;
                    const int64_t w =
                        std::min(w_full, valid - t0);
                    const float *vtile = &vpack[size_t(t0 * dh)];
                    onlineTileUpdate(
                        &sbuf[size_t(i * kStreamKeyTile)], w, dh,
                        mbuf[size_t(i)], dbuf[size_t(i)],
                        &accbuf[size_t(i * dh)],
                        [vtile, w, dh](const float *SOFTREC_RESTRICT p,
                                         float *SOFTREC_RESTRICT acc) {
                            for (int64_t j = 0; j < w; ++j) {
                                const float *vr = vtile + j * dh;
                                for (int64_t dd = 0; dd < dh; ++dd)
                                    acc[dd] += p[j] * vr[dd];
                            }
                        });
                }
            }
            for (int64_t i = 0; i < rh; ++i)
                storeRow(&accbuf[size_t(i * dh)], dh, mbuf[size_t(i)],
                         dbuf[size_t(i)], out.rowPtr(r0 + i));
        }
    });
}

void
decodeAttendStreamRun(const ExecContext &ctx,
                      const DecodeAttendDesc &desc, const Half *q_row,
                      const KvRowsView &k, const KvRowsView &v,
                      Half *out, DecodeAttendWorkspace *ws)
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

    // q/K/V/out only: the streaming kernel has no score-row staging
    // traffic, which is exactly its advantage over decodeAttendRun's
    // softmax.row.decode crossings.
    prof::Scope scope(ctx, "decode.attend.stream");
    if (scope.active()) {
        scope.addRead(uint64_t(dh) * kFp16Bytes +               // q
                      uint64_t(2 * context * dh) *
                          uint64_t(k.elemBytes()));             // K, V
        scope.addWrite(uint64_t(dh) * kFp16Bytes);
        scope.addFlops(uint64_t(4 * context * dh)); // QK and P.V
    }

    DecodeAttendWorkspace local;
    DecodeAttendWorkspace &w = ws != nullptr ? *ws : local;
    // The score "row" is one kStreamKeyTile-wide tile, never the full
    // context; rowH stays untouched (no fp16 staging round-trip).
    w.prepare(dh, kStreamKeyTile);
    std::vector<float> &tile = w.row;
    std::vector<float> &acc = w.acc;
    halfToFloat(q_row, w.qf.data(), dh);
    std::fill(acc.begin(), acc.end(), 0.0f);
    float m = kNegInf;
    float d = 0.0f;

    for (int64_t t0 = 0; t0 < context; t0 += kStreamKeyTile) {
        const int64_t tw = std::min(kStreamKeyTile, context - t0);
        // Scores for this tile: the same loop as decodeAttendRun's,
        // reading the cached K in place.
        decodeScores(desc, w.qf.data(), k, t0, tw, tile.data(), w);
        onlineTileUpdate(tile.data(), tw, dh, m, d, acc.data(),
                         [&](const float *p, float *a) {
                             decodeAccumulate(desc, p, v, t0, tw, a, w);
                         });
    }
    storeRow(acc.data(), dh, m, d, out);
}

} // namespace softrec

/**
 * @file
 * Single-query attention over a block-allocated KV cache — the inner
 * kernel of one autoregressive decode step.
 *
 * A decode step's attention "matrix" is one 1 x C score row per head
 * (C = context length so far), so there is nothing for softmax
 * recomposition to save here; the kernel's job is to read the cached
 * K/V rows in place (no per-step repacking or reconversion of the
 * whole prefix) while reproducing the prefill path's arithmetic
 * bit for bit: the same k-ascending fp32 accumulation as the packed
 * GEMM micro-kernel, the same three-pass safe softmax as
 * rowSoftmaxRun, and the same fp16 storage round-trips between
 * stages. tests/test_decode.cpp proves incremental decode through
 * this kernel is bit-identical to full-prefix recompute at every
 * step, for any thread count and SIMD backend.
 *
 * A decode step is memory-bound: its cost is one sweep over the
 * cached K and V. The cache therefore stores K blocks column-major,
 * so QK holds up to 8 positions in the lanes of one SIMD register
 * (broadcast q[d], ascending d), while P.V holds d in the lanes and
 * walks the row-major V positions in order. decodeScores and
 * decodeAccumulate are those two loops, shared with the streaming
 * decode kernel (kernels/streaming_attention.hpp).
 */

#ifndef SOFTREC_KERNELS_DECODE_ATTENTION_HPP
#define SOFTREC_KERNELS_DECODE_ATTENTION_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/exec_context.hpp"
#include "fp16/half.hpp"

namespace softrec {

/**
 * KV-cache storage element format. F16 is the bit-exact reference
 * (rows are stored exactly as the projection kernels produced them);
 * I8 stores each block as int8 with one per-block fp32 scale/zero
 * header, halving KV bytes so the serve engine admits ~2x the tokens
 * at a fixed slab byte budget.
 */
enum class KvDtype
{
    F16,
    I8,
};

/**
 * Per-block quantization header of an I8 block. Symmetric scheme:
 * scale = blockAmax / 127, zero stays 0.0 (kept in the header so the
 * dequant expression `(q - zero) * scale` matches the conventional
 * affine form and an asymmetric format can slot in later). A freshly
 * opened all-zero block has scale == 0 and dequantizes to zeros.
 */
struct KvBlockQuant
{
    float scale = 0.0f;
    float zero = 0.0f;
};

/**
 * Bytes reserved for the I8 header at the front of a block — padded
 * past sizeof(KvBlockQuant) so the int8 payload starts 16-aligned.
 */
constexpr int64_t kKvBlockQuantBytes = 16;

/**
 * Read-only view of cached rows stored in fixed-size slab blocks
 * (serve/kv_cache.hpp produces these). Row `pos` lives in block
 * `pos / blockTokens` at position `pos % blockTokens`; every row is
 * `rowWidth` elements (the model width, all heads concatenated) of
 * the view's storage format. Within a block, element (t, c) sits at
 * `t * rowWidth + c` (row-major, how V blocks and hand-built views
 * store it) or, when `columnMajor`, at `c * blockTokens + t` (how K
 * blocks store it, so one head's columns form a [dHead][blockTokens]
 * slab whose positions are contiguous). An I8 block's payload keeps
 * the same element order behind its quantization header.
 *
 * loadRow() and loadColumn() are the element-exact reference readers
 * for either layout; the decode kernels read the contiguous
 * direction of a block straight from the payload.
 */
struct KvRowsView
{
    const std::byte *const *blocks = nullptr; //!< block base pointers
    int64_t blockTokens = 0;          //!< rows per block
    int64_t rowWidth = 0;             //!< elements per row (dModel)
    int64_t rows = 0;                 //!< valid rows (context C)
    KvDtype dtype = KvDtype::F16;     //!< storage element format
    bool columnMajor = false;         //!< element order in a block

    /** Stored bytes per element (profiler traffic attribution). */
    int64_t
    elemBytes() const
    {
        return dtype == KvDtype::F16 ? 2 : 1;
    }

    /** Index of element (pos, col) within its block's payload. */
    int64_t
    offset(int64_t pos, int64_t col) const
    {
        const int64_t t = pos % blockTokens;
        return columnMajor ? col * blockTokens + t : t * rowWidth + col;
    }

    /** Payload of row `pos`'s block. F16 views only. */
    const Half *
    halfs(int64_t pos) const
    {
        return reinterpret_cast<const Half *>(blocks[pos / blockTokens]);
    }

    /** Payload of row `pos`'s block, after its header. I8 views only. */
    const int8_t *
    int8s(int64_t pos) const
    {
        return reinterpret_cast<const int8_t *>(blocks[pos / blockTokens] +
                                                kKvBlockQuantBytes);
    }

    /** Quantization header of row `pos`'s block. I8 views only. */
    const KvBlockQuant &
    blockQuant(int64_t pos) const
    {
        return *reinterpret_cast<const KvBlockQuant *>(
            blocks[pos / blockTokens]);
    }

    /** Read `n` fp32 elements of row `pos` starting at column `col`. */
    void
    loadRow(int64_t pos, int64_t col, int64_t n, float *dst) const
    {
        load(pos, col, columnMajor ? blockTokens : 1, n, dst);
    }

    /**
     * Read column `col` of the `n` rows starting at `pos`, which must
     * all lie in `pos`'s block, as fp32.
     */
    void
    loadColumn(int64_t pos, int64_t col, int64_t n, float *dst) const
    {
        load(pos, col, columnMajor ? 1 : rowWidth, n, dst);
    }

  private:
    /**
     * `n` elements from (pos, col), `stride` apart in the payload. F16
     * goes through the batch conversion substrate (bit-identical to
     * scalar conversion); I8 dequantizes with the block's header as
     * (q - zero) * scale.
     */
    void
    load(int64_t pos, int64_t col, int64_t stride, int64_t n,
         float *dst) const
    {
        const int64_t at = offset(pos, col);
        if (dtype == KvDtype::F16) {
            const Half *src = halfs(pos) + at;
            if (stride == 1) {
                halfToFloat(src, dst, n);
                return;
            }
            for (int64_t i = 0; i < n; ++i)
                halfToFloat(src + i * stride, dst + i, 1);
            return;
        }
        const KvBlockQuant &q = blockQuant(pos);
        const int8_t *src = int8s(pos) + at;
        for (int64_t i = 0; i < n; ++i)
            dst[i] = (float(src[i * stride]) - q.zero) * q.scale;
    }
};

/** Shape of one cached-decode attention row. */
struct DecodeAttendDesc
{
    int64_t dHead = 64;     //!< per-head width
    int64_t headOffset = 0; //!< column of this head in a cached row
    double scale = 1.0;     //!< QK^T epilogue scale (1/sqrt(dHead))
};

/**
 * Most cached positions one decode span covers: the decode helpers
 * walk the context in spans that never cross a block and hold at most
 * this many positions, so the portable path's fp32 staging stays
 * dHead x kDecodeSpanTokens whatever the block size.
 */
inline constexpr int64_t kDecodeSpanTokens = 64;

/**
 * Reusable staging buffers for decodeAttendRun. The kernel runs once
 * per (request, head) every decode step, so allocating its fp32
 * staging rows inside the call would put ~5 mallocs on the per-token
 * path; callers that decode in a loop keep one workspace per worker
 * slot (ExecContext::currentThreadSlot()) and pass it in. prepare()
 * only reallocates when the context outgrows the high-water mark,
 * which with vector's geometric growth amortizes to zero as the
 * cache fills.
 */
struct DecodeAttendWorkspace
{
    std::vector<float> qf;    //!< query row, fp32, dHead
    std::vector<float> span;  //!< portable path: one span of K or V
    std::vector<float> row;   //!< score/probability row, fp32
    std::vector<Half> rowH;   //!< fp16 round-trip of the score row
    std::vector<float> acc;   //!< output accumulator, fp32, dHead

    /** Size every buffer for one (dHead, context) problem. */
    void
    prepare(int64_t d_head, int64_t context)
    {
        qf.resize(size_t(d_head));
        span.resize(size_t(d_head * kDecodeSpanTokens));
        row.resize(size_t(context));
        rowH.resize(size_t(context));
        acc.resize(size_t(d_head));
    }
};

/**
 * Scores of cached positions [t0, t0 + n) for one head:
 * s[j] = sum over ascending d of q[d] * K[t0 + j][headOffset + d],
 * each from +0 as a separate multiply and add, then multiplied by
 * float(desc.scale) when desc.scale != 1.0. Positions sit in SIMD
 * lanes; a column-major K view is read in place (F16C conversion or
 * int8 dequantization in registers on AVX2), any other view or
 * backend through `ws.span`. Every path gives the bits of the scalar
 * loop. `ws` must be prepared for desc.dHead.
 */
void decodeScores(const DecodeAttendDesc &desc, const float *q,
                  const KvRowsView &k, int64_t t0, int64_t n, float *s,
                  DecodeAttendWorkspace &ws);

/**
 * acc[d] += p[j] * V[t0 + j][headOffset + d] for j ascending, d <
 * dHead: d sits in SIMD lanes and positions are walked in order, each
 * term a separate multiply and add. Reads a row-major V view in place
 * on AVX2, anything else through `ws.span`; every path gives the bits
 * of the scalar loop.
 */
void decodeAccumulate(const DecodeAttendDesc &desc, const float *p,
                      const KvRowsView &v, int64_t t0, int64_t n,
                      float *acc, DecodeAttendWorkspace &ws);

/**
 * One head's decode-step attention: score the query row against every
 * cached K row, safe-softmax the score row, and reduce against the
 * cached V rows.
 *
 * @param q_row the query head slice, dHead contiguous halfs
 * @param k,v   cached rows; both views must have rows >= 1 (the
 *              current token's K/V must already be appended)
 * @param out   destination, dHead halfs
 * @param ws    staging buffers to reuse; nullptr makes the call
 *              allocate its own (fine for tests, not for the decode
 *              loop)
 */
void decodeAttendRun(const ExecContext &ctx,
                     const DecodeAttendDesc &desc, const Half *q_row,
                     const KvRowsView &k, const KvRowsView &v,
                     Half *out, DecodeAttendWorkspace *ws = nullptr);

} // namespace softrec

#endif // SOFTREC_KERNELS_DECODE_ATTENTION_HPP

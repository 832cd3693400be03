/**
 * @file
 * Slab-allocated per-request KV cache for the serving engine.
 *
 * Decode-step latency must not depend on malloc: a KvSlab reserves
 * fixed-size K/V blocks in bulk and recycles them through a freelist,
 * so steady-state serving performs zero per-step heap allocation once
 * the working set is warm. A KvCache borrows blocks from the slab for
 * one request's lifetime (all layers, K and V) and returns every
 * block on destruction, so evicting a finished request immediately
 * funds the next admission.
 *
 * Blocks come in two storage formats (KvDtype):
 *
 *   F16  elements stored exactly as appended — the bit-exact
 *        reference the decode equivalence tests pin down;
 *   I8   per-block symmetric quantization: a 16-byte fp32 scale/zero
 *        header followed by the int8 payload. appendRow quantizes on
 *        write; when a new row widens the open block's range the
 *        whole block is requantized from fp16 staging copies, so the
 *        per-element round-trip error is always <= scale / 2 with
 *        scale = blockAmax / 127 (no compounding through the stale
 *        scale). KV bytes drop ~2x, which the serve engine turns
 *        directly into ~2x token capacity at a fixed slab budget.
 *
 * Blocks also come in two element orders. K blocks are column-major
 * (element (t, c) at c * blockTokens + t), so one head's keys form a
 * [dHead][blockTokens] slab and the decode kernels hold positions in
 * SIMD lanes while scoring; V blocks are row-major
 * (t * rowWidth + c), so the P.V sum holds columns in the lanes. An
 * I8 payload keeps its block's order behind the unchanged 16-byte
 * header, and either order has the same block bytes. KvRowsView
 * records the order, and its loadRow() reads either one
 * element-exactly.
 *
 * Both classes are driver-thread-only by design: the serve loop owns
 * admission, decode, and eviction on one thread, and the decode
 * kernels only ever *read* cached rows (through KvRowsView), so there
 * is nothing to lock.
 */

#ifndef SOFTREC_SERVE_KV_CACHE_HPP
#define SOFTREC_SERVE_KV_CACHE_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "fp16/half.hpp"
#include "kernels/decode_attention.hpp"

namespace softrec {

/**
 * Bytes of one slab block in `dtype` format: the payload
 * (`block_tokens x row_width` elements) plus, for I8, the per-block
 * quantization header — rounded up to 16 so headers and rows stay
 * aligned at any block index within a chunk.
 */
int64_t kvBlockBytes(KvDtype dtype, int64_t block_tokens,
                     int64_t row_width);

/** Operator-facing name of a storage format ("f16" / "int8"). */
const char *kvDtypeName(KvDtype dtype);

/**
 * Bulk reservation of fixed-size KV blocks with a freelist.
 *
 * One block stores `blockTokens` cached rows of `rowWidth` elements
 * (the model width — all heads concatenated) in `dtype` format.
 * Blocks are reserved in chunks of `blocksPerChunk` so reservation
 * cost amortizes; released blocks are recycled LIFO, and chunk memory
 * is only returned to the OS when the slab itself is destroyed.
 *
 * Checked builds poison every released block (NaN halfs for F16, a
 * NaN-scale header over a -128 sentinel payload for I8) so a stale
 * KvRowsView read of a recycled block floods the decode kernels with
 * NaN and trips their softmax-normalizer SOFTREC_CHECK instead of
 * silently serving another request's KV.
 */
class KvSlab
{
  public:
    KvSlab(int64_t block_tokens, int64_t row_width,
           int64_t blocks_per_chunk = 64,
           KvDtype dtype = KvDtype::F16);

    KvSlab(const KvSlab &) = delete;
    KvSlab &operator=(const KvSlab &) = delete;

    /** Borrow one block (reserving a new chunk if the freelist is empty). */
    std::byte *acquire();

    /** Return a block obtained from acquire(). */
    void release(std::byte *block);

    int64_t blockTokens() const { return blockTokens_; }
    int64_t rowWidth() const { return rowWidth_; }
    KvDtype dtype() const { return dtype_; }
    /** Bytes of one block in this slab's format (header included). */
    int64_t blockBytes() const { return blockBytes_; }

    /** Blocks currently lent out to caches. */
    int64_t blocksInUse() const { return blocksInUse_; }
    /** Blocks ever reserved (in use + freelist). */
    int64_t blocksReserved() const { return blocksReserved_; }
    /** Bytes of KV storage reserved so far (actual format bytes). */
    int64_t bytesReserved() const;

  private:
    void poison(std::byte *block);

    int64_t blockTokens_;
    int64_t rowWidth_;
    int64_t blocksPerChunk_;
    KvDtype dtype_;
    int64_t blockBytes_;
    int64_t blocksInUse_ = 0;
    int64_t blocksReserved_ = 0;
    std::vector<std::unique_ptr<std::byte[]>> chunks_;
    std::vector<std::byte *> freeList_;
};

/**
 * One request's cached K/V rows across every decoder layer, backed by
 * slab blocks. Rows append monotonically (one per prompt token at
 * prefill, one per decode step); all blocks return to the slab on
 * destruction. The storage format is the slab's: F16 appends copy the
 * row (V as one memcpy, K into column `t` of its block), I8 appends
 * quantize in the same element order (and, when the new row widens
 * the open block's range, requantize the block from its fp16 staging
 * copies). Neither path allocates per append once the staging
 * buffers exist, so the decode hot path stays malloc-free. Checked
 * builds reject a non-finite element on the I8 path, which int8
 * cannot represent.
 */
class KvCache
{
  public:
    KvCache(KvSlab &slab, int64_t num_layers);
    ~KvCache();

    KvCache(const KvCache &) = delete;
    KvCache &operator=(const KvCache &) = delete;

    /**
     * Append one cached row (rowWidth halfs each of K and V) for one
     * layer. Every layer must receive the same number of appends; the
     * per-token pattern is one appendRow per layer.
     */
    void appendRow(int64_t layer, const Half *k_row, const Half *v_row);

    /** Cached tokens (asserts every layer has the same count). */
    int64_t context() const;

    /** Read-only view of one layer's cached K rows. */
    KvRowsView kView(int64_t layer) const;
    /** Read-only view of one layer's cached V rows. */
    KvRowsView vView(int64_t layer) const;

    int64_t numLayers() const { return int64_t(layers_.size()); }

  private:
    /**
     * One append-ordered run of blocks (one layer's K or V stream),
     * plus the I8 rescale state: fp16 staging copies of the open
     * (last) block's rows and that block's running amax. The staging
     * vector is sized once and reused for every subsequent block.
     */
    struct BlockRun
    {
        std::vector<std::byte *> blocks;
        bool columnMajor = false; //!< K runs: see KvRowsView
        std::vector<Half> open; //!< I8 only: open block's fp16 rows
        float openAmax = 0.0f;  //!< I8 only: open block's range
    };

    struct LayerRows
    {
        BlockRun k, v;
        int64_t rows = 0;
    };

    std::byte *blockFor(BlockRun &run, int64_t pos);
    void appendF16(BlockRun &run, int64_t pos, const Half *row);
    void appendI8(BlockRun &run, int64_t pos, const Half *row);
    KvRowsView view(const BlockRun &run, int64_t rows) const;

    KvSlab &slab_;
    std::vector<LayerRows> layers_;
    std::vector<float> scratch_; //!< I8 only: one row's fp32 values
};

} // namespace softrec

#endif // SOFTREC_SERVE_KV_CACHE_HPP

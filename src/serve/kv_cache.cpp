/**
 * @file
 * Slab-allocated KV cache implementation.
 */

#include "serve/kv_cache.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/check.hpp"
#include "common/logging.hpp"

namespace softrec {

namespace {

constexpr int64_t kKvBlockAlign = 16;

/**
 * Symmetric-clamp quantization of one fp32 row with a fixed scale,
 * element j stored at dst[j * stride]. nearbyint
 * (round-to-nearest-even under the default mode) keeps the result
 * deterministic across backends; the clamp to [-127, 127] keeps the
 * code symmetric so -amax and +amax round-trip with the same error
 * bound. scale == 0 means the block is all zeros so far. The row must
 * be finite: a NaN would clamp to -127 and an infinity would make the
 * scale infinite (appendI8 checks this in checked builds).
 */
void
quantizeRow(const float *src, int64_t n, float scale, int8_t *dst,
            int64_t stride)
{
    if (scale == 0.0f) {
        for (int64_t j = 0; j < n; ++j)
            dst[j * stride] = 0;
        return;
    }
    const float inv = 1.0f / scale;
    for (int64_t j = 0; j < n; ++j) {
        float q = std::nearbyint(src[j] * inv);
        q = std::min(127.0f, std::max(-127.0f, q));
        dst[j * stride] = int8_t(q);
    }
}

} // namespace

int64_t
kvBlockBytes(KvDtype dtype, int64_t block_tokens, int64_t row_width)
{
    const int64_t elems = block_tokens * row_width;
    const int64_t raw = dtype == KvDtype::F16
                            ? elems * int64_t(sizeof(Half))
                            : kKvBlockQuantBytes + elems;
    return (raw + kKvBlockAlign - 1) / kKvBlockAlign * kKvBlockAlign;
}

const char *
kvDtypeName(KvDtype dtype)
{
    return dtype == KvDtype::F16 ? "f16" : "int8";
}

KvSlab::KvSlab(int64_t block_tokens, int64_t row_width,
               int64_t blocks_per_chunk, KvDtype dtype)
    : blockTokens_(block_tokens), rowWidth_(row_width),
      blocksPerChunk_(blocks_per_chunk), dtype_(dtype),
      blockBytes_(kvBlockBytes(dtype, block_tokens, row_width))
{
    SOFTREC_ASSERT(block_tokens > 0 && row_width > 0 &&
                   blocks_per_chunk > 0,
                   "KvSlab shape must be positive (tokens=%lld, "
                   "width=%lld, chunk=%lld)", (long long)block_tokens,
                   (long long)row_width, (long long)blocks_per_chunk);
}

std::byte *
KvSlab::acquire()
{
    if (freeList_.empty()) {
        auto chunk = std::make_unique<std::byte[]>(
            size_t(blockBytes_) * size_t(blocksPerChunk_));
        for (int64_t b = blocksPerChunk_ - 1; b >= 0; --b)
            freeList_.push_back(chunk.get() +
                                size_t(b) * size_t(blockBytes_));
        chunks_.push_back(std::move(chunk));
        blocksReserved_ += blocksPerChunk_;
    }
    std::byte *block = freeList_.back();
    freeList_.pop_back();
    ++blocksInUse_;
    return block;
}

void
KvSlab::release(std::byte *block)
{
    SOFTREC_ASSERT(block != nullptr && blocksInUse_ > 0,
                   "release without a matching acquire");
    if (kCheckedBuild)
        poison(block);
    freeList_.push_back(block);
    --blocksInUse_;
}

void
KvSlab::poison(std::byte *block)
{
    if (dtype_ == KvDtype::F16) {
        // 0x7e7e is an fp16 NaN, so any stale read of a recycled
        // block NaN-floods the attention row and trips the decode
        // kernels' softmax-normalizer SOFTREC_CHECK.
        std::memset(block, 0x7e, size_t(blockBytes_));
        return;
    }
    KvBlockQuant q;
    q.scale = std::numeric_limits<float>::quiet_NaN();
    q.zero = 0.0f;
    std::memcpy(block, &q, sizeof(q));
    std::memset(block + kKvBlockQuantBytes, 0x80,
                size_t(blockBytes_ - kKvBlockQuantBytes));
}

int64_t
KvSlab::bytesReserved() const
{
    return blocksReserved_ * blockBytes_;
}

KvCache::KvCache(KvSlab &slab, int64_t num_layers)
    : slab_(slab), layers_(size_t(num_layers))
{
    SOFTREC_ASSERT(num_layers > 0, "KvCache needs at least one layer");
    for (LayerRows &layer : layers_)
        layer.k.columnMajor = true;
    if (slab_.dtype() == KvDtype::I8)
        scratch_.resize(size_t(slab_.rowWidth()));
}

KvCache::~KvCache()
{
    for (LayerRows &layer : layers_) {
        for (std::byte *block : layer.k.blocks)
            slab_.release(block);
        for (std::byte *block : layer.v.blocks)
            slab_.release(block);
    }
}

std::byte *
KvCache::blockFor(BlockRun &run, int64_t pos)
{
    const int64_t block_index = pos / slab_.blockTokens();
    if (block_index == int64_t(run.blocks.size())) {
        std::byte *block = slab_.acquire();
        if (slab_.dtype() == KvDtype::I8) {
            // Recycled blocks carry stale (or poisoned) headers;
            // every open block starts as an empty all-zero group.
            const KvBlockQuant fresh;
            std::memcpy(block, &fresh, sizeof(fresh));
            run.openAmax = 0.0f;
        }
        run.blocks.push_back(block);
    }
    SOFTREC_ASSERT(block_index < int64_t(run.blocks.size()),
                   "non-monotonic KV append at row %lld",
                   (long long)pos);
    return run.blocks[size_t(block_index)];
}

void
KvCache::appendF16(BlockRun &run, int64_t pos, const Half *row)
{
    const int64_t rw = slab_.rowWidth();
    const int64_t in_block = pos % slab_.blockTokens();
    Half *payload = reinterpret_cast<Half *>(blockFor(run, pos));
    if (!run.columnMajor) {
        std::memcpy(payload + in_block * rw, row,
                    size_t(rw) * sizeof(Half));
        return;
    }
    for (int64_t c = 0; c < rw; ++c)
        payload[c * slab_.blockTokens() + in_block] = row[c];
}

void
KvCache::appendI8(BlockRun &run, int64_t pos, const Half *row)
{
    const int64_t rw = slab_.rowWidth();
    const int64_t in_block = pos % slab_.blockTokens();
    std::byte *block = blockFor(run, pos);
    if (run.open.empty())
        run.open.resize(size_t(slab_.blockTokens() * rw));

    halfToFloat(row, scratch_.data(), rw);
    float amax = 0.0f;
    for (int64_t j = 0; j < rw; ++j) {
        // max() would skip a NaN and quantizeRow would store it as
        // -127, and an infinity would poison the whole block's scale.
        SOFTREC_CHECK(std::isfinite(scratch_[size_t(j)]),
                      "int8 KV cache got non-finite element %f at "
                      "column %lld of row %lld",
                      double(scratch_[size_t(j)]), (long long)j,
                      (long long)pos);
        amax = std::max(amax, std::fabs(scratch_[size_t(j)]));
    }

    // Stage the exact fp16 row: rescales always requantize from these
    // copies, so a row's error is bounded by the *final* block scale
    // (<= scale / 2 per element) and never compounds through an
    // earlier, narrower scale.
    Half *staged = run.open.data() + size_t(in_block * rw);
    std::memcpy(staged, row, size_t(rw) * sizeof(Half));

    // Element (r, c) of the payload, as in KvRowsView::offset.
    const int64_t token_step = run.columnMajor ? 1 : rw;
    const int64_t col_step = run.columnMajor ? slab_.blockTokens() : 1;
    auto *header = reinterpret_cast<KvBlockQuant *>(block);
    auto *payload =
        reinterpret_cast<int8_t *>(block + kKvBlockQuantBytes);
    if (amax > run.openAmax) {
        run.openAmax = amax;
        header->scale = amax / 127.0f;
        header->zero = 0.0f;
        for (int64_t r = 0; r <= in_block; ++r) {
            halfToFloat(run.open.data() + size_t(r * rw),
                        scratch_.data(), rw);
            quantizeRow(scratch_.data(), rw, header->scale,
                        payload + r * token_step, col_step);
        }
    } else {
        quantizeRow(scratch_.data(), rw, header->scale,
                    payload + in_block * token_step, col_step);
    }
}

void
KvCache::appendRow(int64_t layer, const Half *k_row, const Half *v_row)
{
    SOFTREC_ASSERT(layer >= 0 && layer < int64_t(layers_.size()),
                   "layer %lld out of range", (long long)layer);
    LayerRows &rows = layers_[size_t(layer)];
    if (slab_.dtype() == KvDtype::F16) {
        appendF16(rows.k, rows.rows, k_row);
        appendF16(rows.v, rows.rows, v_row);
    } else {
        appendI8(rows.k, rows.rows, k_row);
        appendI8(rows.v, rows.rows, v_row);
    }
    ++rows.rows;
}

int64_t
KvCache::context() const
{
    const int64_t rows = layers_.front().rows;
    for (const LayerRows &layer : layers_)
        SOFTREC_ASSERT(layer.rows == rows,
                       "layers have uneven KV contexts (%lld vs %lld); "
                       "append one row per layer per token",
                       (long long)layer.rows, (long long)rows);
    return rows;
}

KvRowsView
KvCache::view(const BlockRun &run, int64_t rows) const
{
    KvRowsView out;
    out.blocks = run.blocks.data();
    out.blockTokens = slab_.blockTokens();
    out.rowWidth = slab_.rowWidth();
    out.rows = rows;
    out.dtype = slab_.dtype();
    out.columnMajor = run.columnMajor;
    return out;
}

KvRowsView
KvCache::kView(int64_t layer) const
{
    SOFTREC_ASSERT(layer >= 0 && layer < int64_t(layers_.size()),
                   "layer %lld out of range", (long long)layer);
    const LayerRows &rows = layers_[size_t(layer)];
    return view(rows.k, rows.rows);
}

KvRowsView
KvCache::vView(int64_t layer) const
{
    SOFTREC_ASSERT(layer >= 0 && layer < int64_t(layers_.size()),
                   "layer %lld out of range", (long long)layer);
    const LayerRows &rows = layers_[size_t(layer)];
    return view(rows.v, rows.rows);
}

} // namespace softrec

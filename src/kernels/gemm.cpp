/**
 * @file
 * Dense GEMM kernel implementation: analytical profile + functional
 * tiled execution.
 */

#include "kernels/gemm.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "common/profiler.hpp"
#include "kernels/micro_gemm.hpp"
#include "kernels/softmax_row.hpp"
#include "sim/calibration.hpp"

namespace softrec {

double
gemmEfficiencyOf(GemmShapeClass shape_class)
{
    switch (shape_class) {
      case GemmShapeClass::LargeFc:
        return calib::kGemmEffLargeFc;
      case GemmShapeClass::Attention:
        return calib::kGemmEffAttention;
      case GemmShapeClass::AttentionWide:
        return calib::kGemmEffAttentionWide;
      case GemmShapeClass::BlockSparse:
        return calib::kGemmEffBlockSparse;
    }
    panic("unknown GEMM shape class");
}

KernelProfile
gemmProfile(const GpuSpec &spec, const GemmDesc &desc)
{
    SOFTREC_ASSERT(desc.m > 0 && desc.n > 0 && desc.k > 0 &&
                   desc.batch > 0,
                   "GEMM %s has empty problem", desc.name.c_str());
    const GemmTiling &t = desc.tiling;
    const int64_t tiles_m = ceilDiv(desc.m, t.tileM);
    const int64_t tiles_n = ceilDiv(desc.n, t.tileN);

    KernelProfile prof;
    prof.name = desc.name;
    prof.category = desc.category;
    prof.geom.numBlocks = desc.batch * tiles_m * tiles_n;
    prof.geom.block.threads = t.threads;
    prof.geom.block.smemBytes = t.smemBytes();
    prof.geom.block.regsPerThread = t.regsPerThread;

    // --- DRAM traffic (per batch item, then scaled) ---
    const uint64_t a_bytes = uint64_t(desc.m * desc.k) * kFp16Bytes;
    const uint64_t b_bytes = uint64_t(desc.k * desc.n) * kFp16Bytes;
    const uint64_t c_bytes = uint64_t(desc.m * desc.n) * kFp16Bytes;

    // A-operand reuse works at strip granularity: with row-major tile
    // rasterization, one TB row's A strip (tileM x k) is re-read for
    // every tile in that row with nothing but small B strips between
    // accesses, so a strip that fits in L2 makes A effectively
    // single-pass from DRAM.
    const uint64_t a_strip_bytes = uint64_t(t.tileM * desc.k) * kFp16Bytes;
    const int64_t a_passes =
        a_strip_bytes <= uint64_t(0.8 * double(spec.l2Bytes)) ? 1
                                                              : tiles_n;
    // B is swept once per tile row; its reuse distance is the whole
    // operand, so the whole-operand residency rule applies.
    uint64_t reads = operandDramBytes(a_bytes, a_passes, spec.l2Bytes) +
                     operandDramBytes(b_bytes, tiles_m, spec.l2Bytes);
    uint64_t writes = c_bytes;

    if (desc.epilogue.bias)
        reads += uint64_t(desc.n) * kFp32Bytes;
    if (desc.epilogue.localSoftmax) {
        // m' and d' per (row, sub-vector), fp32.
        writes += uint64_t(desc.m * tiles_n) * 2 * kFp32Bytes;
    }
    if (desc.prologue.globalScale) {
        // r' per (row, incoming sub-vector), fp32.
        reads += uint64_t(desc.m *
                          ceilDiv(desc.k, desc.prologue.gsSubVector)) *
                 kFp32Bytes;
    }
    prof.dramReadBytes = uint64_t(desc.batch) * reads;
    prof.dramWriteBytes = uint64_t(desc.batch) * writes;

    // --- Arithmetic ---
    prof.tensorFlops =
        2.0 * double(desc.batch) * double(desc.m) * double(desc.n) *
        double(desc.k);
    prof.gemmEfficiency = gemmEfficiencyOf(desc.shapeClass);

    const double out_elems =
        double(desc.batch) * double(desc.m) * double(desc.n);
    double epilogue_flops = 0.0;
    double sfu_ops = 0.0;
    if (desc.epilogue.scale != 1.0)
        epilogue_flops += out_elems;
    if (desc.epilogue.causalMask)
        epilogue_flops += out_elems;
    if (desc.epilogue.bias)
        epilogue_flops += out_elems;
    if (desc.epilogue.gelu) {
        epilogue_flops += 8.0 * out_elems;
        sfu_ops += out_elems; // tanh
    }
    if (desc.epilogue.localSoftmax) {
        epilogue_flops += 3.0 * out_elems; // max, subtract, accumulate
        sfu_ops += out_elems;              // exp
    }
    if (desc.prologue.globalScale) {
        epilogue_flops +=
            double(desc.batch) * double(desc.m) * double(desc.k);
    }
    prof.cudaFlops = epilogue_flops;
    prof.sfuOps = sfu_ops;
    // Fused softmax work slows the mainloop in proportion to how
    // little GEMM depth each fused element amortizes over: K steps
    // per output element for an LS epilogue, N columns per LHS
    // element for a GS prologue.
    if (desc.epilogue.localSoftmax)
        prof.fusedPenalty +=
            calib::kFusedWorkPerElement / double(desc.k);
    if (desc.prologue.globalScale)
        prof.fusedPenalty +=
            calib::kFusedWorkPerElement / double(desc.n);
    prof.workImbalance = desc.workImbalance;
    return prof;
}

float
geluApprox(float x)
{
    const float c = 0.7978845608028654f; // sqrt(2/pi)
    const float inner = c * (x + 0.044715f * x * x * x);
    return 0.5f * x * (1.0f + std::tanh(inner));
}

void
gemmRun(const ExecContext &ctx, const GemmDesc &desc,
        const GemmOperands &ops, Tensor<Half> &c, const LsOutputs *ls)
{
    SOFTREC_ASSERT(desc.batch == 1,
                   "functional GEMM handles one batch item; loop "
                   "outside (%s)", desc.name.c_str());
    SOFTREC_ASSERT(ops.a && ops.b, "GEMM operands missing");
    const int64_t m = desc.m, n = desc.n, k = desc.k;
    SOFTREC_ASSERT(ops.a->shape() == Shape({m, k}),
                   "A shape %s != [m, k]",
                   ops.a->shape().toString().c_str());
    const Shape expect_b =
        ops.transposeB ? Shape({n, k}) : Shape({k, n});
    SOFTREC_ASSERT(ops.b->shape() == expect_b, "B shape %s unexpected",
                   ops.b->shape().toString().c_str());
    SOFTREC_ASSERT(c.shape() == Shape({m, n}), "C shape %s != [m, n]",
                   c.shape().toString().c_str());
    if (desc.epilogue.bias) {
        SOFTREC_ASSERT(ops.bias && ops.bias->shape() == Shape({n}),
                       "bias missing or misshaped");
    }
    const int64_t gs_sub = desc.prologue.gsSubVector;
    if (desc.prologue.globalScale) {
        SOFTREC_ASSERT(ops.gsFactors &&
                       ops.gsFactors->shape() ==
                           Shape({m, ceilDiv(k, gs_sub)}),
                       "GS factors missing or misshaped");
    }
    // Row i keeps columns j <= i + diag (causal mask and causal A).
    const int64_t diag = desc.causalOffset;
    SOFTREC_ASSERT(diag >= 0, "%s: negative causal offset %lld",
                   desc.name.c_str(), (long long)diag);
    const GemmTiling &t = desc.tiling;
    const int64_t tiles_n = ceilDiv(n, t.tileN);
    if (desc.epilogue.localSoftmax) {
        SOFTREC_ASSERT(ls && ls->localMax && ls->localSum,
                       "LS outputs missing");
        SOFTREC_ASSERT(ls->localMax->shape() == Shape({m, tiles_n}) &&
                       ls->localSum->shape() == Shape({m, tiles_n}),
                       "LS output shapes must be [m, ceil(n/tileN)]");
    }

    // Unique-operand traffic accounting: B (and bias) are credited
    // once up front on the submitting thread; per-strip A reads and C
    // writes are credited by whichever thread runs the strip. Fused
    // LS/GS extras go to byte-only scopes so softmax-layer traffic
    // can be summed per strategy without double-counting GEMM time.
    prof::Scope scope(ctx, desc.name.c_str());
    std::optional<prof::Scope> ls_scope;
    std::optional<prof::Scope> gs_scope;
    if (scope.active()) {
        uint64_t fixed_reads = uint64_t(k * n) * kFp16Bytes;
        if (desc.epilogue.bias)
            fixed_reads += uint64_t(n) * kFp32Bytes;
        scope.addRead(fixed_reads);
        if (desc.epilogue.localSoftmax)
            ls_scope.emplace(ctx, "softmax.ls.fused",
                             prof::Scope::Kind::BytesOnly);
        if (desc.prologue.globalScale)
            gs_scope.emplace(ctx, "softmax.gs.fused",
                             prof::Scope::Kind::BytesOnly);
    }

    // Pack B once per call into one fp32 panel per n-tile, laid out
    // [k][tileN] so the micro-kernel streams it contiguously. This
    // hoists the transposeB branch and every B-side conversion out of
    // the mainloop. The ragged tail columns of the last panel stay
    // unset: the micro-kernel only reads the nw columns a tile stores.
    const auto bpack = std::make_unique_for_overwrite<float[]>(
        size_t(tiles_n) * size_t(k) * size_t(t.tileN));
    if (!ops.transposeB) {
        // B is [k, n]: each row feeds one contiguous strip per panel.
        for (int64_t kk = 0; kk < k; ++kk) {
            const Half *brow = ops.b->rowPtr(kk);
            for (int64_t tn = 0; tn < tiles_n; ++tn) {
                const int64_t n0 = tn * t.tileN;
                halfToFloat(
                    brow + n0,
                    &bpack[size_t((tn * k + kk) * t.tileN)],
                    std::min(t.tileN, n - n0));
            }
        }
    } else {
        // B is [n, k]: convert each row once, scatter into panels.
        std::vector<float> brow(size_t(k), 0.0f);
        for (int64_t j = 0; j < n; ++j) {
            halfToFloat(ops.b->rowPtr(j), brow.data(), k);
            float *panel =
                &bpack[size_t((j / t.tileN) * k * t.tileN)];
            const int64_t jj = j % t.tileN;
            for (int64_t kk = 0; kk < k; ++kk)
                panel[kk * t.tileN + jj] = brow[kk];
        }
    }

    const float scale = float(desc.epilogue.scale);
    const bool scaled = desc.epilogue.scale != 1.0;
    const float *bias = desc.epilogue.bias ? ops.bias->data() : nullptr;

    // Depth of rows [m0, m0 + mh): a causal A is zero past each row's
    // diagonal, so the strip stops at its last row's.
    auto stripDepth = [&](int64_t m0, int64_t mh) {
        return desc.prologue.causalA ? std::min(k, m0 + mh + diag) : k;
    };
    // Under the causal mask, an n-tile starting past the diagonal of
    // the strip's last row is fully masked: every product would be
    // overwritten.
    auto maskedTile = [&](int64_t m0, int64_t mh, int64_t n0) {
        return desc.epilogue.causalMask && n0 > m0 + mh - 1 + diag;
    };

    // One m-tile strip of output: all n-tiles for rows [m0, m0 + mh).
    // The strip's A rows are converted (and GS-scaled) once into abuf;
    // every n-tile below reuses those fp32 rows.
    auto runStrip = [&](int64_t m0, std::vector<float> &abuf,
                        std::vector<float> &acc) {
        const int64_t mh = std::min(t.tileM, m - m0);
        const int64_t kd = stripDepth(m0, mh);
        for (int64_t i = 0; i < mh; ++i) {
            float *arow = &abuf[size_t(i * k)];
            halfToFloat(ops.a->rowPtr(m0 + i), arow, kd);
            if (desc.prologue.globalScale)
                globalScale(arow, kd, ops.gsFactors->rowPtr(m0 + i),
                            gs_sub);
        }
        for (int64_t tn = 0; tn < tiles_n; ++tn) {
            const int64_t n0 = tn * t.tileN;
            const int64_t nw = std::min(t.tileN, n - n0);
            // A fully masked tile skips the multiply and the scale:
            // the mask pass below writes -inf over all of it.
            const bool masked = maskedTile(m0, mh, n0);
            if (!masked) {
                microGemm(abuf.data(), k,
                          &bpack[size_t(tn) * size_t(k) *
                                 size_t(t.tileN)],
                          t.tileN, acc.data(), t.tileN, mh, nw, kd);
            }

            // Epilogue on the fp32 tile, one pass per configured step
            // so each loop vectorizes. Per element the order is still
            // scale, mask, bias, GeLU. C stores go through the batch
            // converter per row.
            for (int64_t i = 0; i < mh; ++i) {
                float *row = &acc[size_t(i * t.tileN)];
                if (scaled && !masked) {
                    for (int64_t j = 0; j < nw; ++j)
                        row[j] *= scale;
                }
                if (desc.epilogue.causalMask) {
                    // Mask the columns past the diagonal,
                    // n0 + j > m0 + i + diag.
                    const int64_t first = std::max<int64_t>(
                        0, m0 + i + 1 + diag - n0);
                    for (int64_t j = first; j < nw; ++j)
                        row[j] = kNegInf;
                }
                if (bias != nullptr) {
                    for (int64_t j = 0; j < nw; ++j)
                        row[j] += bias[n0 + j];
                }
                if (desc.epilogue.gelu) {
                    for (int64_t j = 0; j < nw; ++j)
                        row[j] = geluApprox(row[j]);
                }

                if (desc.epilogue.localSoftmax) {
                    // One sub-vector: this row segment of width nw.
                    const SoftmaxStats st = localSoftmax(row, nw);
                    ls->localMax->at(m0 + i, tn) = st.m;
                    ls->localSum->at(m0 + i, tn) = st.d;
                    SOFTREC_CHECK(st.d > 0.0f || st.m == kNegInf,
                                  "fused LS epilogue (%lld, %lld): "
                                  "d' = %f must be positive unless "
                                  "fully masked",
                                  (long long)(m0 + i), (long long)tn,
                                  double(st.d));
                }
                floatToHalf(row, c.rowPtr(m0 + i) + n0, nw);
            }
        }
    };

    // Parallel over m-tile strips: each strip owns its buffers and
    // writes disjoint output rows (and disjoint LS rows), so the
    // result is bit-identical for any thread count.
    const int64_t strips = ceilDiv(m, t.tileM);
    parallelFor(ctx, 0, strips, 1, [&](int64_t strip0, int64_t strip1) {
        std::vector<float> abuf(size_t(t.tileM) * size_t(k));
        std::vector<float> acc(size_t(t.tileM * t.tileN));
        for (int64_t strip = strip0; strip < strip1; ++strip) {
            const int64_t m0 = strip * t.tileM;
            if (scope.active()) {
                const int64_t rows = std::min(t.tileM, m - m0);
                const uint64_t mh = uint64_t(rows);
                const uint64_t kd = uint64_t(stripDepth(m0, rows));
                int64_t cols = 0; // columns the micro-kernel computes
                for (int64_t n0 = 0; n0 < n; n0 += t.tileN) {
                    if (!maskedTile(m0, rows, n0))
                        cols += std::min(t.tileN, n - n0);
                }
                scope.addRead(mh * kd * kFp16Bytes);
                scope.addWrite(mh * uint64_t(n) * kFp16Bytes);
                scope.addFlops(2 * mh * uint64_t(cols) * kd);
                if (ls_scope) // m'/d' per (row, sub-vector)
                    ls_scope->addWrite(mh * uint64_t(tiles_n) * 2 *
                                       kFp32Bytes);
                if (gs_scope) // r' per (row, incoming sub-vector)
                    gs_scope->addRead(
                        mh * uint64_t(ceilDiv(int64_t(kd), gs_sub)) *
                        kFp32Bytes);
            }
            runStrip(m0, abuf, acc);
        }
    });
}

} // namespace softrec

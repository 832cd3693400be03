/**
 * @file
 * Dense softmax kernel implementations.
 */

#include "kernels/softmax_kernels.hpp"

#include <algorithm>
#include <vector>

#include "common/check.hpp"
#include "common/logging.hpp"
#include "common/profiler.hpp"
#include "kernels/kernel_common.hpp"
#include "kernels/softmax_row.hpp"
#include "sim/calibration.hpp"
#include "sim/cost_model.hpp"

namespace softrec {

namespace {

/** Rows per parallelFor chunk (fixed: part of the determinism contract). */
constexpr int64_t kRowGrain = 8;

} // namespace

int64_t
SoftmaxShape::numSubVectors() const
{
    SOFTREC_ASSERT(subVector > 0,
                   "%s: numSubVectors needs subVector > 0 (whole-row "
                   "shape?)", name.c_str());
    return ceilDiv(cols, subVector);
}

KernelProfile
rowSoftmaxProfile(const GpuSpec &spec, const SoftmaxShape &desc)
{
    (void)spec;
    SOFTREC_ASSERT(desc.batch > 0 && desc.rows > 0 && desc.cols > 0,
                   "empty softmax problem %s", desc.name.c_str());
    KernelProfile prof;
    prof.name = desc.name;
    prof.category = KernelCategory::Softmax;
    prof.geom.numBlocks = desc.batch * desc.rows;
    prof.geom.block.threads = 128;
    // The whole row is staged in fp32 in shared memory so the three
    // dependent passes avoid re-reading DRAM (Section 3.1).
    prof.geom.block.smemBytes =
        uint64_t(desc.cols) * calib::kRowSoftmaxStagingBytesPerElem;
    prof.geom.block.regsPerThread = 40;

    const uint64_t matrix_bytes =
        uint64_t(desc.batch * desc.rows * desc.cols) * kFp16Bytes;
    prof.dramReadBytes = matrix_bytes;
    prof.dramWriteBytes = matrix_bytes;

    const double elems =
        double(desc.batch) * double(desc.rows) * double(desc.cols);
    prof.cudaFlops = 4.0 * elems; // max, subtract, accumulate, scale
    prof.sfuOps = elems;          // exp
    prof.serializationFactor = rowSoftmaxSerialization(desc.cols);
    return prof;
}

void
rowSoftmaxRun(const ExecContext &ctx, const SoftmaxShape &desc,
              const Tensor<Half> &in, Tensor<Half> &out)
{
    SOFTREC_ASSERT(desc.batch == 1,
                   "functional softmax handles one matrix; loop outside");
    const Shape expect({desc.rows, desc.cols});
    SOFTREC_ASSERT(in.shape() == expect && out.shape() == expect,
                   "softmax shapes must be [rows, cols]");
    if constexpr (kCheckedBuild) {
        checkFinite(in, "rowSoftmax input", /*allow_neg_inf=*/true);
        if (desc.causal)
            checkCausallyMasked(in, "causal rowSoftmax input");
    }
    // A causal row's masked tail adds exp(-inf) = +0 terms to a sum
    // that started at +0 and divides to +0: it is skipped, not
    // computed, and stored as fp16 +0.
    const auto width = [&](int64_t i) {
        return desc.causal ? std::min(desc.cols, i + 1) : desc.cols;
    };
    prof::Scope scope(ctx, "softmax.row");
    parallelFor(ctx, 0, desc.rows, kRowGrain,
                [&](int64_t row0, int64_t row1) {
        if (scope.active()) {
            uint64_t read = 0;
            for (int64_t i = row0; i < row1; ++i)
                read += uint64_t(width(i)) * kFp16Bytes;
            scope.addRead(read);
            scope.addWrite(uint64_t(row1 - row0) * uint64_t(desc.cols) *
                           kFp16Bytes);
        }
        // Row staged once in fp32; exp(x - m) is stored back into the
        // staging row during the normalizer pass and reused by the
        // scale pass, so each element pays for one exp, not two.
        std::vector<float> row(size_t(desc.cols));
        for (int64_t i = row0; i < row1; ++i) {
            const int64_t w = width(i);
            halfToFloat(in.rowPtr(i), row.data(), w);
            const SoftmaxStats st = safeSoftmax(row.data(), w);
            floatToHalf(row.data(), out.rowPtr(i), w);
            std::fill(out.rowPtr(i) + w, out.rowPtr(i) + desc.cols,
                      Half());
            SOFTREC_CHECK(st.d > 0.0f || st.m == kNegInf,
                          "row %lld normalizer d = %f must be positive "
                          "for an unmasked row",
                          (long long)i, double(st.d));
        }
    });
    if constexpr (kCheckedBuild)
        checkRowSumsNearOne(out, "rowSoftmax output");
}

KernelProfile
onlineRowSoftmaxProfile(const GpuSpec &spec, const SoftmaxShape &desc)
{
    KernelProfile prof = rowSoftmaxProfile(spec, desc);
    prof.name = desc.name + ".online";
    // The fused max+normalizer pass removes one of the three
    // dependent sweeps, recovering a third of the serialization loss.
    prof.serializationFactor =
        1.0 - (1.0 - prof.serializationFactor) * 2.0 / 3.0;
    // One extra rescale multiply per element in the online recurrence.
    prof.cudaFlops += double(desc.batch) * double(desc.rows) *
                      double(desc.cols);
    return prof;
}

KernelProfile
lsProfile(const GpuSpec &spec, const SoftmaxShape &desc)
{
    (void)spec;
    SOFTREC_ASSERT(desc.batch > 0 && desc.rows > 0 && desc.cols > 0 &&
                   desc.subVector > 0,
                   "empty LS problem %s", desc.name.c_str());
    KernelProfile prof;
    prof.name = desc.name;
    prof.category = KernelCategory::SoftmaxLs;
    // Square tiles: subVector-wide, subVector-tall blocks of the
    // attention matrix per TB (Fig. 4, left).
    const int64_t tile_rows = desc.subVector;
    prof.geom.numBlocks = desc.batch * ceilDiv(desc.rows, tile_rows) *
                          desc.numSubVectors();
    prof.geom.block.threads = 128;
    prof.geom.block.smemBytes =
        uint64_t(tile_rows * desc.subVector) * kFp16Bytes;
    prof.geom.block.regsPerThread = 40;

    const uint64_t matrix_bytes =
        uint64_t(desc.batch * desc.rows * desc.cols) * kFp16Bytes;
    const uint64_t md_bytes =
        uint64_t(desc.batch * desc.rows * desc.numSubVectors()) * 2 *
        kFp32Bytes;
    prof.dramReadBytes = matrix_bytes;
    prof.dramWriteBytes = matrix_bytes + md_bytes;

    const double elems =
        double(desc.batch) * double(desc.rows) * double(desc.cols);
    prof.cudaFlops = 3.0 * elems;
    prof.sfuOps = elems;
    return prof;
}

void
lsRun(const ExecContext &ctx, const SoftmaxShape &desc,
      const Tensor<Half> &in, Tensor<Half> &x_prime,
      Tensor<float> &local_max, Tensor<float> &local_sum)
{
    SOFTREC_ASSERT(desc.batch == 1,
                   "functional LS handles one matrix; loop outside");
    const Shape expect({desc.rows, desc.cols});
    const Shape md_shape({desc.rows, desc.numSubVectors()});
    SOFTREC_ASSERT(in.shape() == expect && x_prime.shape() == expect,
                   "LS matrix shapes must be [rows, cols]");
    SOFTREC_ASSERT(local_max.shape() == md_shape &&
                   local_sum.shape() == md_shape,
                   "LS m'/d' shapes must be [rows, N_sv]");
    if constexpr (kCheckedBuild)
        checkFinite(in, "LS input", /*allow_neg_inf=*/true);
    prof::Scope scope(ctx, "softmax.ls");
    parallelFor(ctx, 0, desc.rows, kRowGrain,
                [&](int64_t row0, int64_t row1) {
        if (scope.active()) {
            const uint64_t chunk_rows = uint64_t(row1 - row0);
            const uint64_t matrix =
                chunk_rows * uint64_t(desc.cols) * kFp16Bytes;
            const uint64_t md = chunk_rows *
                uint64_t(desc.numSubVectors()) * 2 * kFp32Bytes;
            scope.addRead(matrix);
            scope.addWrite(matrix + md); // X' plus m'/d'
        }
        // Whole row staged in fp32 once; each sub-vector's exp values
        // overwrite their segment in place, then one batch narrow
        // stores the full X' row.
        std::vector<float> row(size_t(desc.cols));
        for (int64_t i = row0; i < row1; ++i) {
            halfToFloat(in.rowPtr(i), row.data(), desc.cols);
            float *md_max = local_max.rowPtr(i);
            float *md_sum = local_sum.rowPtr(i);
            for (int64_t sv = 0; sv < desc.numSubVectors(); ++sv) {
                const int64_t j0 = sv * desc.subVector;
                const int64_t j1 =
                    std::min(desc.cols, j0 + desc.subVector);
                const SoftmaxStats st =
                    localSoftmax(&row[size_t(j0)], j1 - j0);
                md_max[sv] = st.m;
                md_sum[sv] = st.d;
                SOFTREC_CHECK(st.d > 0.0f || st.m == kNegInf,
                              "LS sub-vector (%lld, %lld): d' = %f must "
                              "be positive unless fully masked",
                              (long long)i, (long long)sv,
                              double(st.d));
            }
            floatToHalf(row.data(), x_prime.rowPtr(i), desc.cols);
        }
    });
    if constexpr (kCheckedBuild)
        checkFinite(local_sum, "LS d' output");
}

KernelProfile
irProfile(const GpuSpec &spec, const SoftmaxShape &desc)
{
    (void)spec;
    KernelProfile prof;
    prof.name = desc.name;
    prof.category = KernelCategory::SoftmaxIr;
    // One row per thread; 256 threads per TB.
    prof.geom.numBlocks =
        std::max<int64_t>(1, ceilDiv(desc.batch * desc.rows, 256));
    prof.geom.block.threads = 256;
    prof.geom.block.smemBytes = 0;
    prof.geom.block.regsPerThread = 32;

    const uint64_t md_count =
        uint64_t(desc.batch * desc.rows * desc.numSubVectors());
    prof.dramReadBytes = md_count * 2 * kFp32Bytes; // m', d'
    prof.dramWriteBytes = md_count * kFp32Bytes;    // r'
    prof.cudaFlops = 4.0 * double(md_count);
    prof.sfuOps = double(md_count);
    return prof;
}

void
irRun(const ExecContext &ctx, const SoftmaxShape &desc,
      const Tensor<float> &local_max, const Tensor<float> &local_sum,
      Tensor<float> &recon)
{
    SOFTREC_ASSERT(desc.batch == 1,
                   "functional IR handles one matrix; loop outside");
    const Shape md_shape({desc.rows, desc.numSubVectors()});
    SOFTREC_ASSERT(local_max.shape() == md_shape &&
                   local_sum.shape() == md_shape &&
                   recon.shape() == md_shape,
                   "IR shapes must be [rows, N_sv]");
    prof::Scope scope(ctx, "softmax.ir");
    parallelFor(ctx, 0, desc.rows, kRowGrain,
                [&](int64_t row0, int64_t row1) {
        if (scope.active()) {
            const uint64_t md_count = uint64_t(row1 - row0) *
                                      uint64_t(desc.numSubVectors());
            scope.addRead(md_count * 2 * kFp32Bytes); // m', d'
            scope.addWrite(md_count * kFp32Bytes);    // r'
        }
        for (int64_t i = row0; i < row1; ++i) {
            const SoftmaxStats st = interReduce(
                local_max.rowPtr(i), local_sum.rowPtr(i),
                desc.numSubVectors(), 1, recon.rowPtr(i));
            SOFTREC_CHECK(st.d > 0.0f || st.m == kNegInf,
                          "IR row %lld: global normalizer d = %f must "
                          "be positive for an unmasked row",
                          (long long)i, double(st.d));
        }
    });
    if constexpr (kCheckedBuild)
        checkReconFactors(recon, "IR r' output");
}

KernelProfile
gsProfile(const GpuSpec &spec, const SoftmaxShape &desc)
{
    (void)spec;
    KernelProfile prof;
    prof.name = desc.name;
    prof.category = KernelCategory::SoftmaxGs;
    // Element-wise streaming: 256 threads, 4 elements per thread.
    const int64_t elems = desc.batch * desc.rows * desc.cols;
    prof.geom.numBlocks = std::max<int64_t>(1, ceilDiv(elems, 1024));
    prof.geom.block.threads = 256;
    prof.geom.block.smemBytes = 0;
    prof.geom.block.regsPerThread = 32;

    const uint64_t matrix_bytes = uint64_t(elems) * kFp16Bytes;
    const uint64_t r_bytes =
        uint64_t(desc.batch * desc.rows * desc.numSubVectors()) *
        kFp32Bytes;
    prof.dramReadBytes = matrix_bytes + r_bytes;
    prof.dramWriteBytes = matrix_bytes;
    prof.cudaFlops = double(elems);
    return prof;
}

void
gsRun(const ExecContext &ctx, const SoftmaxShape &desc,
      const Tensor<Half> &x_prime, const Tensor<float> &recon,
      Tensor<Half> &y)
{
    SOFTREC_ASSERT(desc.batch == 1,
                   "functional GS handles one matrix; loop outside");
    const Shape expect({desc.rows, desc.cols});
    SOFTREC_ASSERT(x_prime.shape() == expect && y.shape() == expect,
                   "GS matrix shapes must be [rows, cols]");
    SOFTREC_ASSERT(recon.shape() ==
                       Shape({desc.rows, desc.numSubVectors()}),
                   "GS r' shape must be [rows, N_sv]");
    prof::Scope scope(ctx, "softmax.gs");
    parallelFor(ctx, 0, desc.rows, kRowGrain,
                [&](int64_t row0, int64_t row1) {
        if (scope.active()) {
            const uint64_t chunk_rows = uint64_t(row1 - row0);
            const uint64_t matrix =
                chunk_rows * uint64_t(desc.cols) * kFp16Bytes;
            const uint64_t r_bytes = chunk_rows *
                uint64_t(desc.numSubVectors()) * kFp32Bytes;
            scope.addRead(matrix + r_bytes); // X' plus r'
            scope.addWrite(matrix);
        }
        // Widen the row once, apply each sub-vector's r' to its
        // contiguous segment, narrow once.
        std::vector<float> row(size_t(desc.cols));
        for (int64_t i = row0; i < row1; ++i) {
            halfToFloat(x_prime.rowPtr(i), row.data(), desc.cols);
            globalScale(row.data(), desc.cols, recon.rowPtr(i),
                        desc.subVector);
            floatToHalf(row.data(), y.rowPtr(i), desc.cols);
        }
    });
    // The recomposition identity (Eq. (2)): after GS the decomposed
    // pipeline must reproduce safe-softmax rows exactly, so each
    // unmasked row sums to ~1.
    if constexpr (kCheckedBuild)
        checkRowSumsNearOne(y, "GS output");
}

} // namespace softrec

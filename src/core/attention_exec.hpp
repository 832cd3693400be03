/**
 * @file
 * Functional single-head attention executor.
 *
 * Runs one scaled-dot-product-attention head end to end on the CPU
 * using the functional kernel implementations, under any of the three
 * strategies. All strategies compute the same mathematics; tests and
 * examples use this to demonstrate that recomposition is exact (up to
 * fp16 storage rounding of the X' intermediate).
 */

#ifndef SOFTREC_CORE_ATTENTION_EXEC_HPP
#define SOFTREC_CORE_ATTENTION_EXEC_HPP

#include "common/exec_context.hpp"
#include "core/recomposition.hpp"
#include "fp16/half.hpp"
#include "sparse/bsr_matrix.hpp"
#include "tensor/tensor.hpp"

namespace softrec {

/** Q/K/V of one attention head, each [L, dHead] fp16. */
struct AttentionInputs
{
    Tensor<Half> q;
    Tensor<Half> k;
    Tensor<Half> v;
};

/** Make zeroed inputs of the right shapes for a config. */
AttentionInputs makeAttentionInputs(const SdaConfig &config);

/**
 * Execute one attention head functionally under a strategy,
 * dispatching on config.layout: dense when null, block-sparse
 * otherwise. config.batch and config.heads are ignored (single
 * problem). A causal config masks by SdaConfig::kvLen's offset rule
 * and hard-errors when kvLen < seqLen.
 *
 * @return the attention output, [L, dHead] fp16
 */
Tensor<Half> runAttention(const ExecContext &ctx,
                          const SdaConfig &config,
                          const AttentionInputs &inputs,
                          Strategy strategy);

/**
 * Double-precision reference attention (dense), computed directly from
 * the definition; the gold standard for the functional tests.
 */
Tensor<float> referenceDenseAttention(const SdaConfig &config,
                                      const AttentionInputs &inputs);

/**
 * Double-precision reference attention over a block-sparse layout
 * (softmax over the non-masked positions only).
 */
Tensor<float> referenceSparseAttention(const SdaConfig &config,
                                       const AttentionInputs &inputs);

} // namespace softrec

#endif // SOFTREC_CORE_ATTENTION_EXEC_HPP

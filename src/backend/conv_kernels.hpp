/**
 * @file
 * Direct convolution kernels: dense, CSR-sparse, and depthwise.
 *
 * These are the paper's baseline compute path (§V-D uses direct
 * convolution, not im2col, for the baseline experiments). Each kernel
 * has a serial body; the OpenMP-backend variant runs the outer
 * output-channel loop on the worker team with dynamic scheduling, as
 * described in §IV-D, and synchronises at the end of every layer
 * (team::run returns when every task has).
 */

#ifndef DLIS_BACKEND_CONV_KERNELS_HPP
#define DLIS_BACKEND_CONV_KERNELS_HPP

#include "backend/conv_params.hpp"
#include "sparse/csr_filter_bank.hpp"
#include "sparse/packed_ternary.hpp"

namespace dlis::kernels {

/**
 * Dense direct convolution.
 *
 * @param p       geometry
 * @param input   NCHW input, n*cin*hin*win floats
 * @param weight  OIHW filter, cout*cin*kh*kw floats
 * @param bias    per-output-channel bias (may be nullptr)
 * @param output    NCHW output, n*cout*hout*wout floats; overwritten
 * @param policy    threading policy
 * @param epilogue  applied to each output plane in place, in the task
 *                  that computed it (while it is still in cache)
 */
void convDirectDense(const ConvParams &p, const float *input,
                     const float *weight, const float *bias,
                     float *output, const KernelPolicy &policy,
                     const ConvEpilogue &epilogue = {});

/**
 * Per-slice CSR direct convolution — the paper's deployed sparse path:
 * every (out-channel, in-channel) filter slice is its own little CSR
 * matrix (see sparse/csr_filter_bank.hpp). The epilogue runs on each
 * finished output plane in place, as in convDirectDense.
 */
void convDirectCsrBank(const ConvParams &p, const float *input,
                       const CsrFilterBank &bank, const float *bias,
                       float *output, const KernelPolicy &policy,
                       const ConvEpilogue &epilogue = {});

/**
 * Bit-packed ternary direct convolution: decodes 2-bit weight codes on
 * the fly and accumulates positive/negative partial sums, scaling by
 * the per-layer Wp/Wn once per output pixel. Minimal memory, extra
 * decode work per weight — the trade-off §V-D describes. The epilogue
 * runs on each finished output plane in place, as in convDirectDense.
 */
void convDirectPackedTernary(const ConvParams &p, const float *input,
                             const PackedTernary &weight,
                             const float *bias, float *output,
                             const KernelPolicy &policy,
                             const ConvEpilogue &epilogue = {});

/**
 * Depthwise direct convolution (MobileNet's 3x3 stage). The filter is
 * C1HW: one kh*kw filter per channel; cout must equal cin. The
 * epilogue is applied to each accumulator as it is stored.
 */
void convDepthwiseDense(const ConvParams &p, const float *input,
                        const float *weight, const float *bias,
                        float *output, const KernelPolicy &policy,
                        const ConvEpilogue &epilogue = {});

} // namespace dlis::kernels

#endif // DLIS_BACKEND_CONV_KERNELS_HPP

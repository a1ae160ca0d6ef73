/**
 * @file
 * Elementwise and reduction kernels: ReLU, batch-norm (inference form),
 * max pooling, global average pooling, softmax.
 */

#ifndef DLIS_BACKEND_ELEMENTWISE_KERNELS_HPP
#define DLIS_BACKEND_ELEMENTWISE_KERNELS_HPP

#include <cstddef>

#include "backend/conv_params.hpp"

namespace dlis::kernels {

/**
 * ReLU, output[i] = input[i] > 0 ? input[i] : 0, over @p count
 * elements: NaN and -0.0 become +0.0. On the worker team (one region)
 * when the policy asks for threads.
 */
void relu(const float *input, float *output, size_t count,
          const KernelPolicy &policy);

/**
 * Inference batch-norm as a per-channel scale and shift:
 * scale = gamma / sqrt(var + eps), then shift = beta - scale * mean,
 * each rounded on its own. The unfused kernel below and every conv
 * epilogue (ConvEpilogue) take their scale and shift from this one
 * function, so the two cannot round differently.
 */
void batchNormScaleShift(const float *gamma, const float *beta,
                         const float *mean, const float *var, float eps,
                         size_t c, float *scale, float *shift);

/**
 * Inference batch-norm of an NCHW tensor: y = scale * x + shift per
 * channel (batchNormScaleShift, computed once per channel per call),
 * with the rounding of ConvEpilogue::apply. One task per channel, on
 * the worker team when the policy asks for threads.
 */
void batchNormInference(const float *input, float *output, size_t n,
                        size_t c, size_t hw, const float *gamma,
                        const float *beta, const float *mean,
                        const float *var, float eps,
                        const KernelPolicy &policy);

/**
 * Max pooling with square kernel/stride (no padding).
 *
 * @param n, c     batch and channels
 * @param hin,win  input spatial dims
 * @param k        pooling window and stride (k x k, stride k)
 */
void maxPool(const float *input, float *output, size_t n, size_t c,
             size_t hin, size_t win, size_t k, const KernelPolicy &policy);

/** Global average pooling: NCHW -> NC. */
void globalAvgPool(const float *input, float *output, size_t n, size_t c,
                   size_t hw, const KernelPolicy &policy);

/** Row-wise softmax over an [n, classes] matrix. */
void softmax(const float *input, float *output, size_t n, size_t classes);

} // namespace dlis::kernels

#endif // DLIS_BACKEND_ELEMENTWISE_KERNELS_HPP

#include "backend/elementwise_kernels.hpp"

#include <algorithm>
#include <cmath>

#include "core/thread_pool.hpp"

namespace dlis::kernels {

void
relu(const float *input, float *output, size_t count,
     const KernelPolicy &policy)
{
    auto clamp = [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i)
            output[i] = input[i] > 0.0f ? input[i] : 0.0f;
    };
    if (policy.threads > 1) {
        if (policy.counters.ompRegions)
            policy.counters.ompRegions->add(1);
        // A static split: one contiguous chunk per task.
        team::run(static_cast<size_t>(policy.threads),
                  [&](size_t tid, size_t nt) {
                      clamp(count * tid / nt, count * (tid + 1) / nt);
                  });
        return;
    }
    clamp(0, count);
}

void
batchNormScaleShift(const float *gamma, const float *beta,
                    const float *mean, const float *var, float eps,
                    size_t c, float *scale, float *shift)
{
    for (size_t ch = 0; ch < c; ++ch) {
        scale[ch] = gamma[ch] / std::sqrt(var[ch] + eps);
        shift[ch] = beta[ch] - scale[ch] * mean[ch];
    }
}

void
batchNormInference(const float *input, float *output, size_t n, size_t c,
                   size_t hw, const float *gamma, const float *beta,
                   const float *mean, const float *var, float eps,
                   const KernelPolicy &policy)
{
    // One task per channel: its scale and shift are computed once and
    // serve the channel's plane in every image.
    forEachImageChannel(1, c, policy, [&](size_t, size_t ch) {
        float scale = 0.0f, shift = 0.0f;
        batchNormScaleShift(gamma + ch, beta + ch, mean + ch, var + ch,
                            eps, 1, &scale, &shift);
        const ConvEpilogue bn{&scale, &shift, false};
        for (size_t img = 0; img < n; ++img) {
            const float *in = input + (img * c + ch) * hw;
            float *out = output + (img * c + ch) * hw;
            for (size_t i = 0; i < hw; ++i)
                out[i] = bn.apply(in[i], 0);
        }
    });
}

void
maxPool(const float *input, float *output, size_t n, size_t c, size_t hin,
        size_t win, size_t k, const KernelPolicy &policy)
{
    (void)policy;
    const size_t ho = hin / k, wo = win / k;
    for (size_t img = 0; img < n; ++img) {
        for (size_t ch = 0; ch < c; ++ch) {
            const float *in = input + (img * c + ch) * hin * win;
            float *out = output + (img * c + ch) * ho * wo;
            for (size_t oy = 0; oy < ho; ++oy) {
                // Row at a time: the window taps stream along ox.
                // std::max drops a NaN unless it came first, so a
                // row that reads a NaN is patched after its sweep.
                float *o = out + oy * wo;
                const float *rows = in + oy * k * win;
                bool nan = false;
                for (size_t ox = 0; ox < wo; ++ox)
                    o[ox] = rows[ox * k];
                for (size_t ky = 0; ky < k; ++ky) {
                    for (size_t kx = 0; kx < k; ++kx) {
                        const float *tap = rows + ky * win + kx;
                        for (size_t ox = 0; ox < wo; ++ox) {
                            o[ox] = std::max(o[ox], tap[ox * k]);
                            nan |= std::isnan(tap[ox * k]);
                        }
                    }
                }
                if (!nan)
                    continue;
                for (size_t ox = 0; ox < wo; ++ox) {
                    for (size_t ky = 0; ky < k; ++ky) {
                        for (size_t kx = 0; kx < k; ++kx) {
                            const float v = rows[ky * win + ox * k + kx];
                            if (std::isnan(v))
                                o[ox] = v;
                        }
                    }
                }
            }
        }
    }
}

void
globalAvgPool(const float *input, float *output, size_t n, size_t c,
              size_t hw, const KernelPolicy &policy)
{
    (void)policy;
    for (size_t img = 0; img < n; ++img) {
        for (size_t ch = 0; ch < c; ++ch) {
            const float *in = input + (img * c + ch) * hw;
            float acc = 0.0f;
            for (size_t i = 0; i < hw; ++i)
                acc += in[i];
            output[img * c + ch] = acc / static_cast<float>(hw);
        }
    }
}

void
softmax(const float *input, float *output, size_t n, size_t classes)
{
    for (size_t img = 0; img < n; ++img) {
        const float *in = input + img * classes;
        float *out = output + img * classes;
        float maxv = in[0];
        for (size_t i = 1; i < classes; ++i)
            maxv = std::max(maxv, in[i]);
        float denom = 0.0f;
        for (size_t i = 0; i < classes; ++i) {
            out[i] = std::exp(in[i] - maxv);
            denom += out[i];
        }
        for (size_t i = 0; i < classes; ++i)
            out[i] /= denom;
    }
}

} // namespace dlis::kernels

#include "backend/elementwise_kernels.hpp"

#include <algorithm>
#include <cmath>

#include "core/thread_pool.hpp"

namespace dlis::kernels {

void
reluInPlace(float *data, size_t count, const KernelPolicy &policy)
{
    if (policy.threads > 1) {
        if (policy.counters.ompRegions)
            policy.counters.ompRegions->add(1);
        // A static split: one contiguous chunk per task.
        auto task = [&](size_t tid, size_t nt) {
            const size_t end = count * (tid + 1) / nt;
            for (size_t i = count * tid / nt; i < end; ++i)
                data[i] = data[i] > 0.0f ? data[i] : 0.0f;
        };
        team::run(static_cast<size_t>(policy.threads), task);
        return;
    }
    for (size_t i = 0; i < count; ++i)
        data[i] = data[i] > 0.0f ? data[i] : 0.0f;
}

void
batchNormInference(const float *input, float *output, size_t n, size_t c,
                   size_t hw, const float *gamma, const float *beta,
                   const float *mean, const float *var, float eps,
                   const KernelPolicy &policy)
{
    (void)policy;
    for (size_t img = 0; img < n; ++img) {
        for (size_t ch = 0; ch < c; ++ch) {
            const float scale =
                gamma[ch] / std::sqrt(var[ch] + eps);
            const float shift = beta[ch] - scale * mean[ch];
            const float *in = input + (img * c + ch) * hw;
            float *out = output + (img * c + ch) * hw;
            for (size_t i = 0; i < hw; ++i)
                out[i] = scale * in[i] + shift;
        }
    }
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

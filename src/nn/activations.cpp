#include "nn/activations.hpp"

#include "backend/elementwise_kernels.hpp"

namespace dlis {

ReLU::ReLU(std::string name)
    : Layer(std::move(name))
{}

Shape
ReLU::outputShape(const Shape &input) const
{
    return input;
}

Tensor
ReLU::forward(const Tensor &input, ExecContext &ctx)
{
    Tensor out(input.shape());
    kernels::relu(input.data(), out.data(), out.numel(),
                  kernelPolicy(ctx));
    if (ctx.training)
        cachedOutput_ = out;
    return out;
}

Tensor
ReLU::backward(const Tensor &gradOut, ExecContext &ctx)
{
    (void)ctx;
    DLIS_CHECK(cachedOutput_.numel() > 0,
               "backward without training-mode forward in '", name_,
               "'");
    Tensor gradIn(gradOut.shape());
    for (size_t i = 0; i < gradOut.numel(); ++i)
        gradIn[i] = cachedOutput_[i] > 0.0f ? gradOut[i] : 0.0f;

    if (probeEnabled_) {
        // Fisher info: per image, square the spatial sum of
        // activation * gradient per channel, then accumulate.
        const Shape &s = cachedOutput_.shape();
        DLIS_ASSERT(s.rank() == 4, "fisher probe needs NCHW");
        const size_t n = s.n(), c = s.c(), hw = s.h() * s.w();
        DLIS_ASSERT(fisher_.size() == c, "fisher probe channel mismatch");
        for (size_t img = 0; img < n; ++img) {
            for (size_t ch = 0; ch < c; ++ch) {
                const float *a =
                    cachedOutput_.data() + (img * c + ch) * hw;
                const float *g = gradOut.data() + (img * c + ch) * hw;
                double dot = 0.0;
                for (size_t i = 0; i < hw; ++i)
                    dot += static_cast<double>(a[i]) * g[i];
                fisher_[ch] += 0.5 * dot * dot;
            }
        }
    }
    return gradIn;
}

LayerCost
ReLU::cost(const Shape &input) const
{
    // The paper's implementation parallelises (and synchronises) every
    // layer, so even this memory-bound stage pays the fork/join cost.
    LayerCost c = Layer::cost(input);
    c.parallel = true;
    return c;
}

void
ReLU::enableFisherProbe(size_t channels)
{
    probeEnabled_ = true;
    fisher_.assign(channels, 0.0);
}

void
ReLU::disableFisherProbe()
{
    probeEnabled_ = false;
    fisher_.clear();
}

void
ReLU::resetFisherInfo()
{
    fisher_.assign(fisher_.size(), 0.0);
}

} // namespace dlis

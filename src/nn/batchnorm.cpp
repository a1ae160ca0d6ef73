#include "nn/batchnorm.hpp"

#include <cmath>

#include "backend/elementwise_kernels.hpp"

namespace dlis {

BatchNorm2d::BatchNorm2d(std::string name, size_t channels, float eps,
                         float momentum)
    : Layer(std::move(name)),
      channels_(channels), eps_(eps), momentum_(momentum),
      gamma_(Shape{channels}, MemClass::Weights),
      beta_(Shape{channels}, MemClass::Weights),
      runningMean_(Shape{channels}, MemClass::Weights),
      runningVar_(Shape{channels}, MemClass::Weights)
{
    gamma_.fill(1.0f);
    runningVar_.fill(1.0f);
}

Shape
BatchNorm2d::outputShape(const Shape &input) const
{
    DLIS_CHECK(input.rank() == 4 && input.c() == channels_,
               "batchnorm '", name_, "' expects [n, ", channels_,
               ", h, w], got ", input.str());
    return input;
}

Tensor
BatchNorm2d::forward(const Tensor &input, ExecContext &ctx)
{
    const Shape &s = input.shape();
    outputShape(s); // shape check
    const size_t n = s.n(), hw = s.h() * s.w();
    Tensor out(s);

    if (!ctx.training) {
        kernels::batchNormInference(
            input.data(), out.data(), n, channels_, hw, gamma_.data(),
            beta_.data(), runningMean_.data(), runningVar_.data(), eps_,
            ctx.policy());
        return out;
    }

    cachedInput_ = input;
    batchMean_.assign(channels_, 0.0f);
    batchVar_.assign(channels_, 0.0f);
    const float count = static_cast<float>(n * hw);

    for (size_t ch = 0; ch < channels_; ++ch) {
        double sum = 0.0;
        for (size_t img = 0; img < n; ++img) {
            const float *in = input.data() + (img * channels_ + ch) * hw;
            for (size_t i = 0; i < hw; ++i)
                sum += in[i];
        }
        batchMean_[ch] = static_cast<float>(sum / count);
        double var = 0.0;
        for (size_t img = 0; img < n; ++img) {
            const float *in = input.data() + (img * channels_ + ch) * hw;
            for (size_t i = 0; i < hw; ++i) {
                const double d = in[i] - batchMean_[ch];
                var += d * d;
            }
        }
        batchVar_[ch] = static_cast<float>(var / count);

        runningMean_[ch] = (1.0f - momentum_) * runningMean_[ch] +
                           momentum_ * batchMean_[ch];
        runningVar_[ch] = (1.0f - momentum_) * runningVar_[ch] +
                          momentum_ * batchVar_[ch];

        const float inv_std =
            1.0f / std::sqrt(batchVar_[ch] + eps_);
        for (size_t img = 0; img < n; ++img) {
            const float *in = input.data() + (img * channels_ + ch) * hw;
            float *o = out.data() + (img * channels_ + ch) * hw;
            for (size_t i = 0; i < hw; ++i)
                o[i] = gamma_[ch] * (in[i] - batchMean_[ch]) * inv_std +
                       beta_[ch];
        }
    }
    return out;
}

Tensor
BatchNorm2d::backward(const Tensor &gradOut, ExecContext &ctx)
{
    (void)ctx;
    DLIS_CHECK(cachedInput_.numel() > 0,
               "backward without training-mode forward in '", name_,
               "'");
    const Shape &s = cachedInput_.shape();
    const size_t n = s.n(), hw = s.h() * s.w();
    const float count = static_cast<float>(n * hw);
    const std::vector<Tensor *> grads = gradients();
    Tensor &gradGamma = *grads[0];
    Tensor &gradBeta = *grads[1];
    Tensor gradIn(s);

    for (size_t ch = 0; ch < channels_; ++ch) {
        const float inv_std = 1.0f / std::sqrt(batchVar_[ch] + eps_);

        // Accumulate dL/dgamma, dL/dbeta and the two reduction terms
        // of the standard batch-norm backward formula.
        double sum_g = 0.0, sum_gx = 0.0;
        for (size_t img = 0; img < n; ++img) {
            const float *go =
                gradOut.data() + (img * channels_ + ch) * hw;
            const float *in =
                cachedInput_.data() + (img * channels_ + ch) * hw;
            for (size_t i = 0; i < hw; ++i) {
                const float xhat =
                    (in[i] - batchMean_[ch]) * inv_std;
                sum_g += go[i];
                sum_gx += go[i] * xhat;
            }
        }
        gradBeta[ch] += static_cast<float>(sum_g);
        gradGamma[ch] += static_cast<float>(sum_gx);

        const float k1 = static_cast<float>(sum_g) / count;
        const float k2 = static_cast<float>(sum_gx) / count;
        for (size_t img = 0; img < n; ++img) {
            const float *go =
                gradOut.data() + (img * channels_ + ch) * hw;
            const float *in =
                cachedInput_.data() + (img * channels_ + ch) * hw;
            float *gi = gradIn.data() + (img * channels_ + ch) * hw;
            for (size_t i = 0; i < hw; ++i) {
                const float xhat =
                    (in[i] - batchMean_[ch]) * inv_std;
                gi[i] = gamma_[ch] * inv_std *
                        (go[i] - k1 - xhat * k2);
            }
        }
    }
    return gradIn;
}

std::vector<Tensor *>
BatchNorm2d::parameters()
{
    return {&gamma_, &beta_};
}

LayerCost
BatchNorm2d::cost(const Shape &input) const
{
    LayerCost c;
    c.name = name_;
    // Scale-and-shift: one multiply-add per element.
    c.denseMacs = input.numel();
    c.macs = c.denseMacs;
    c.params = 4 * channels_; // gamma, beta, running mean/var
    c.weightBytes = 4 * channels_ * sizeof(float);
    c.inputBytes = input.numel() * sizeof(float);
    c.outputBytes = input.numel() * sizeof(float);
    c.parallel = true; // every layer is a parallel region (§IV-D)
    return c;
}

void
BatchNorm2d::keepChannels(const std::vector<size_t> &keep)
{
    DLIS_CHECK(!keep.empty() && keep.back() < channels_,
               "bad keep list for '", name_, "'");
    auto shrink = [&](Tensor &t) {
        Tensor nt(Shape{keep.size()}, MemClass::Weights);
        for (size_t i = 0; i < keep.size(); ++i)
            nt[i] = t[keep[i]];
        t = std::move(nt);
    };
    shrink(gamma_);
    shrink(beta_);
    shrink(runningMean_);
    shrink(runningVar_);
    channels_ = keep.size();
}

} // namespace dlis

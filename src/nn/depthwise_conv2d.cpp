#include "nn/depthwise_conv2d.hpp"

#include <algorithm>

#include "backend/conv_kernels.hpp"
#include "core/scratch_arena.hpp"

namespace dlis {

DepthwiseConv2d::DepthwiseConv2d(std::string name, size_t channels,
                                 size_t kernel, size_t stride, size_t pad)
    : Layer(std::move(name)),
      channels_(channels), kernel_(kernel), stride_(stride), pad_(pad),
      weight_(Shape{channels, 1, kernel, kernel}, MemClass::Weights)
{
    DLIS_CHECK(channels > 0 && kernel > 0 && stride > 0,
               "depthwise conv '", name_, "' has a zero dimension");
}

void
DepthwiseConv2d::initKaiming(Rng &rng)
{
    weight_.fillKaiming(rng);
}

void
DepthwiseConv2d::enableBias()
{
    if (withBias_)
        return;
    withBias_ = true;
    bias_ = Tensor(Shape{channels_}, MemClass::Weights);
}

std::vector<Tensor *>
DepthwiseConv2d::parameters()
{
    std::vector<Tensor *> out{&weight_};
    if (withBias_)
        out.push_back(&bias_);
    return out;
}

ConvParams
DepthwiseConv2d::paramsFor(const Shape &input) const
{
    DLIS_CHECK(input.rank() == 4 && input.c() == channels_,
               "depthwise conv '", name_, "' expects [n, ", channels_,
               ", h, w], got ", input.str());
    ConvParams p;
    p.n = input.n();
    p.cin = channels_;
    p.hin = input.h();
    p.win = input.w();
    p.cout = channels_;
    p.kh = kernel_;
    p.kw = kernel_;
    p.stride = stride_;
    p.pad = pad_;
    return p;
}

Shape
DepthwiseConv2d::outputShape(const Shape &input) const
{
    const ConvParams p = paramsFor(input);
    return Shape{p.n, channels_, p.hout(), p.wout()};
}

Tensor
DepthwiseConv2d::forward(const Tensor &input, ExecContext &ctx)
{
    return forward(input, ctx, {});
}

Tensor
DepthwiseConv2d::forward(const Tensor &input, ExecContext &ctx,
                         const ConvTail &tail)
{
    if (ctx.training) {
        DLIS_CHECK(tail.layers() == 0, "depthwise conv '", name_,
                   "' runs no fused tail in training");
        cachedInput_ = input;
    }
    const ConvParams p = paramsFor(input.shape());
    Tensor out(outputShape(input.shape()));
    const KernelPolicy pol = kernelPolicy(ctx);
    ScratchArena localArena;
    ScratchArena &ar = pol.arena ? *pol.arena : localArena;
    ScratchArena::Scope scope(ar, pol.counters);
    // Depthwise stays on the direct path under every backend; the
    // paper's GEMM transformation only covers standard convolutions.
    // A 3x3 filter runs the vector kernel where the ISA has one: it
    // computes eight (image, channel) planes at once, one per lane,
    // so the batch fills the lanes as well as the channels do.
    kernels::convDepthwiseDense(p, input.data(), weight_.data(),
                                withBias_ ? bias_.data() : nullptr,
                                out.data(), pol,
                                tail.bind(out.shape(), ar));
    return out;
}

Tensor
DepthwiseConv2d::backward(const Tensor &gradOut, ExecContext &ctx)
{
    (void)ctx;
    DLIS_CHECK(cachedInput_.numel() > 0,
               "backward without training-mode forward in '", name_,
               "'");
    const ConvParams p = paramsFor(cachedInput_.shape());
    const size_t ho = p.hout(), wo = p.wout();
    const std::vector<Tensor *> grads = gradients();
    Tensor gradIn(cachedInput_.shape());

    for (size_t img = 0; img < p.n; ++img) {
        for (size_t ch = 0; ch < channels_; ++ch) {
            const float *in_ch = cachedInput_.data() +
                                 (img * channels_ + ch) * p.hin * p.win;
            const float *go_ch =
                gradOut.data() + (img * channels_ + ch) * ho * wo;
            float *gi_ch =
                gradIn.data() + (img * channels_ + ch) * p.hin * p.win;
            float *gw_ch = grads[0]->data() + ch * kernel_ * kernel_;
            float gb = 0.0f;

            for (size_t oy = 0; oy < ho; ++oy) {
                for (size_t ox = 0; ox < wo; ++ox) {
                    const float g = go_ch[oy * wo + ox];
                    gb += g;
                    if (g == 0.0f)
                        continue;
                    for (size_t ky = 0; ky < kernel_; ++ky) {
                        const ptrdiff_t iy =
                            static_cast<ptrdiff_t>(oy * stride_ + ky) -
                            static_cast<ptrdiff_t>(pad_);
                        if (iy < 0 ||
                            iy >= static_cast<ptrdiff_t>(p.hin))
                            continue;
                        for (size_t kx = 0; kx < kernel_; ++kx) {
                            const ptrdiff_t ix =
                                static_cast<ptrdiff_t>(
                                    ox * stride_ + kx) -
                                static_cast<ptrdiff_t>(pad_);
                            if (ix < 0 ||
                                ix >= static_cast<ptrdiff_t>(p.win))
                                continue;
                            gw_ch[ky * kernel_ + kx] +=
                                g * in_ch[iy * p.win + ix];
                            gi_ch[iy * p.win + ix] +=
                                g * weight_[ch * kernel_ * kernel_ +
                                            ky * kernel_ + kx];
                        }
                    }
                }
            }
            if (withBias_)
                (*grads[1])[ch] += gb;
        }
    }
    return gradIn;
}

LayerCost
DepthwiseConv2d::cost(const Shape &input) const
{
    const ConvParams p = paramsFor(input);
    LayerCost c;
    c.name = name_;
    // Depthwise: each output pixel reduces over one kh*kw filter.
    c.denseMacs = p.n * channels_ * p.hout() * p.wout() * kernel_ *
                  kernel_;
    c.macs = c.denseMacs;
    c.params = channels_ * kernel_ * kernel_;
    c.weightBytes = weight_.bytes();
    c.inputBytes = input.numel() * sizeof(float);
    c.outputBytes = outputShape(input).numel() * sizeof(float);
    c.parallel = true;
    // gemmM stays 0: the CLBlast transformation only covers standard
    // convolutions; depthwise keeps its direct kernel. gemmK still
    // records the (short) reduce-loop length for the efficiency model.
    c.gemmK = kernel_ * kernel_;
    c.images = p.n;
    return c;
}

void
DepthwiseConv2d::keepChannels(const std::vector<size_t> &keep)
{
    DLIS_CHECK(!keep.empty(), "cannot prune every channel of '", name_,
               "'");
    DLIS_CHECK(keep.back() < channels_, "keep index out of range in '",
               name_, "'");
    const size_t kk = kernel_ * kernel_;
    Tensor w(Shape{keep.size(), 1, kernel_, kernel_}, MemClass::Weights);
    for (size_t i = 0; i < keep.size(); ++i)
        std::copy_n(weight_.data() + keep[i] * kk, kk, w.data() + i * kk);
    if (withBias_) {
        Tensor b(Shape{keep.size()}, MemClass::Weights);
        for (size_t i = 0; i < keep.size(); ++i)
            b[i] = bias_[keep[i]];
        bias_ = std::move(b);
    }
    weight_ = std::move(w);
    channels_ = keep.size();
}

} // namespace dlis

#include "nn/conv2d.hpp"

#include <algorithm>

#include "backend/conv_kernels.hpp"
#include "backend/gemm.hpp"
#include "backend/im2col.hpp"
#include "core/scratch_arena.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dlis {

Conv2d::Conv2d(std::string name, size_t cin, size_t cout, size_t kernel,
               size_t stride, size_t pad, bool withBias)
    : Layer(std::move(name)),
      cin_(cin), cout_(cout), kernel_(kernel), stride_(stride), pad_(pad),
      withBias_(withBias),
      weight_(Shape{cout, cin, kernel, kernel}, MemClass::Weights),
      bias_(withBias ? Tensor(Shape{cout}, MemClass::Weights) : Tensor()),
      gradWeight_(Shape{cout, cin, kernel, kernel}, MemClass::Other),
      gradBias_(withBias ? Tensor(Shape{cout}, MemClass::Other)
                         : Tensor())
{
    DLIS_CHECK(cin > 0 && cout > 0 && kernel > 0 && stride > 0,
               "conv '", name_, "' has a zero dimension");
}

void
Conv2d::initKaiming(Rng &rng)
{
    DLIS_CHECK(format_ == WeightFormat::Dense,
               "cannot re-init CSR-format weights");
    weight_.fillKaiming(rng);
    if (withBias_)
        bias_.fill(0.0f);
}

void
Conv2d::enableBias()
{
    if (withBias_)
        return;
    withBias_ = true;
    bias_ = Tensor(Shape{cout_}, MemClass::Weights);
    gradBias_ = Tensor(Shape{cout_}, MemClass::Other);
}

ConvParams
Conv2d::paramsFor(const Shape &input) const
{
    DLIS_CHECK(input.rank() == 4 && input.c() == cin_,
               "conv '", name_, "' expects [n, ", cin_,
               ", h, w], got ", input.str());
    ConvParams p;
    p.n = input.n();
    p.cin = cin_;
    p.hin = input.h();
    p.win = input.w();
    p.cout = cout_;
    p.kh = kernel_;
    p.kw = kernel_;
    p.stride = stride_;
    p.pad = pad_;
    return p;
}

Shape
Conv2d::outputShape(const Shape &input) const
{
    const ConvParams p = paramsFor(input);
    return Shape{p.n, p.cout, p.hout(), p.wout()};
}

Tensor
Conv2d::forward(const Tensor &input, ExecContext &ctx)
{
    if (ctx.training) {
        DLIS_CHECK(format_ == WeightFormat::Dense,
                   "training requires dense weights in '", name_, "'");
        cachedInput_ = input;
    }

    const ConvParams p = paramsFor(input.shape());
    Tensor out(outputShape(input.shape()));
    const float *bias_ptr = withBias_ ? bias_.data() : nullptr;

    switch (ctx.backend) {
      case Backend::Serial:
      case Backend::OpenMP:
        if (format_ == WeightFormat::Csr) {
            kernels::convDirectCsrBank(p, input.data(), *bank_,
                                       bias_ptr, out.data(),
                                       kernelPolicy(ctx));
        } else if (format_ == WeightFormat::PackedTernary) {
            kernels::convDirectPackedTernary(p, input.data(), *packed_,
                                             bias_ptr, out.data(),
                                             kernelPolicy(ctx));
        } else if (ctx.convAlgo == ConvAlgo::Im2colGemm) {
            return forwardIm2col(input, ctx);
        } else {
            kernels::convDirectDense(p, input.data(), weight_.data(),
                                     bias_ptr, out.data(),
                                     kernelPolicy(ctx));
        }
        break;
      case Backend::OclHandTuned:
      case Backend::OclGemmLib:
        fatal("backend '", backendName(ctx.backend),
              "' is estimate-only (hw/cost_model) and has no host "
              "execution");
    }
    return out;
}

Tensor
Conv2d::forwardIm2col(const Tensor &input, ExecContext &ctx)
{
    DLIS_CHECK(format_ == WeightFormat::Dense,
               "im2col/GEMM path requires dense weights in '", name_,
               "'");
    const ConvParams p = paramsFor(input.shape());
    const size_t hw = p.hout() * p.wout();
    const size_t ck = cin_ * kernel_ * kernel_;
    const size_t inImg = cin_ * p.hin * p.win;

    Tensor out(outputShape(input.shape()));
    const float *bias_ptr = withBias_ ? bias_.data() : nullptr;
    const KernelPolicy pol = kernelPolicy(ctx);

    // Images run in groups of g: their columns sit side by side in one
    // [ck, g*hw] matrix, so a small-spatial layer streams its weights
    // once per group instead of once per image. Each output element
    // is still one ascending-k chain, so grouping changes no bit of
    // the result.
    const size_t g = kernels::im2colGroupImages(p);
    const bool copyCols = g > 1 || !kernels::im2colIsIdentity(p);

    // The column matrix comes from the context's scratch arena and is
    // reused for every group (and every later forward); a call-local
    // arena serves arena-less callers.
    ScratchArena localArena;
    ScratchArena &ar = pol.arena ? *pol.arena : localArena;
    ScratchArena::Scope scope(ar, pol.counters);
    float *cols = copyCols ? ar.allocFloats(ck * g * hw) : nullptr;

    for (size_t img0 = 0; img0 < p.n; img0 += g) {
        const size_t imgs = std::min(g, p.n - img0);
        const size_t n = imgs * hw;
        const float *in0 = input.data() + img0 * inImg;
        float *out0 = out.data() + img0 * cout_ * hw;
        const float *b = copyCols ? cols : in0;
        if (copyCols && pol.counters.im2colBytes)
            pol.counters.im2colBytes->add(ck * n * sizeof(float));

        // The GEMM's own parallel team packs the columns and stores
        // each tile straight into its images' NCHW planes.
        obs::TraceSpan gemmSpan(ctx.tracer, name_ + ".gemm", "kernel");
        const kernels::Im2colGroup group{p, in0, imgs, cols};
        kernels::gemmBlocked(weight_.data(), b, out0, cout_, ck, n, pol,
                             {copyCols ? &group : nullptr, hw});
        gemmSpan.finish();

        if (!bias_ptr)
            continue;
        for (size_t i = 0; i < imgs * cout_; ++i) {
            float *dst = out0 + i * hw;
            for (size_t s = 0; s < hw; ++s)
                dst[s] += bias_ptr[i % cout_];
        }
    }
    return out;
}

Tensor
Conv2d::backward(const Tensor &gradOut, ExecContext &ctx)
{
    (void)ctx;
    DLIS_CHECK(cachedInput_.numel() > 0,
               "backward without training-mode forward in '", name_,
               "'");
    const ConvParams p = paramsFor(cachedInput_.shape());
    const size_t ho = p.hout(), wo = p.wout();
    const size_t spatial = ho * wo;
    const size_t ck = cin_ * kernel_ * kernel_;

    Tensor gradIn(cachedInput_.shape());
    Tensor cols(Shape{ck, spatial}, MemClass::Scratch);
    Tensor colsGrad(Shape{ck, spatial}, MemClass::Scratch);

    for (size_t img = 0; img < p.n; ++img) {
        const float *in_img =
            cachedInput_.data() + img * cin_ * p.hin * p.win;
        const float *go_img = gradOut.data() + img * cout_ * spatial;
        float *gi_img = gradIn.data() + img * cin_ * p.hin * p.win;

        kernels::im2col(p, in_img, cols.data());

        // dW += gradOut [cout, S] x cols^T [S, ck]
        kernels::gemmABt(go_img, cols.data(), gradWeight_.data(), cout_,
                         spatial, ck, /*accumulate=*/true);

        // dX_cols = W^T [ck, cout] x gradOut [cout, S]
        kernels::gemmAtB(weight_.data(), go_img, colsGrad.data(), ck,
                         cout_, spatial, /*accumulate=*/false);
        kernels::col2im(p, colsGrad.data(), gi_img);

        if (withBias_) {
            for (size_t oc = 0; oc < cout_; ++oc) {
                const float *row = go_img + oc * spatial;
                float acc = 0.0f;
                for (size_t i = 0; i < spatial; ++i)
                    acc += row[i];
                gradBias_[oc] += acc;
            }
        }
    }
    return gradIn;
}

std::vector<Tensor *>
Conv2d::parameters()
{
    std::vector<Tensor *> out{&weight_};
    if (withBias_)
        out.push_back(&bias_);
    return out;
}

std::vector<Tensor *>
Conv2d::gradients()
{
    std::vector<Tensor *> out{&gradWeight_};
    if (withBias_)
        out.push_back(&gradBias_);
    return out;
}

LayerCost
Conv2d::cost(const Shape &input) const
{
    const ConvParams p = paramsFor(input);
    LayerCost c;
    c.name = name_;
    c.denseMacs = p.macs();
    c.params = cout_ * cin_ * kernel_ * kernel_ + (withBias_ ? cout_ : 0);
    c.inputBytes = input.numel() * sizeof(float);
    c.outputBytes = outputShape(input).numel() * sizeof(float);
    c.parallel = true;
    c.gemmM = cout_;
    c.gemmK = cin_ * kernel_ * kernel_;
    c.gemmN = p.hout() * p.wout();
    c.images = p.n;
    if (format_ == WeightFormat::Csr) {
        c.macs = p.n * bank_->nnz() * p.hout() * p.wout();
        c.weightBytes = bank_->storageBytes();
        c.sparseTraversal = true;
        c.sparseRowVisits =
            p.n * cout_ * p.hout() * p.wout() * cin_ * kernel_;
    } else if (format_ == WeightFormat::PackedTernary) {
        // Every weight position is visited and decoded.
        c.macs = c.denseMacs;
        c.weightBytes = packed_->storageBytes();
        c.packedTernary = true;
    } else {
        c.macs = c.denseMacs;
        c.weightBytes =
            weight_.bytes() + (withBias_ ? bias_.bytes() : 0);
    }
    return c;
}

void
Conv2d::setFormat(WeightFormat format)
{
    if (format == format_)
        return;
    // Re-materialise dense weights first, then convert to the target.
    if (format_ == WeightFormat::Csr) {
        DLIS_ASSERT(bank_.has_value(), "CSR weights missing");
        weight_ = bank_->toDense();
        bank_.reset();
    } else if (format_ == WeightFormat::PackedTernary) {
        DLIS_ASSERT(packed_.has_value(), "packed weights missing");
        weight_ = packed_->toDense();
        packed_.reset();
    }
    if (format == WeightFormat::Csr) {
        bank_ = CsrFilterBank::fromFilter(weight_);
        weight_ = Tensor(); // deployment drops the dense copy
    } else if (format == WeightFormat::PackedTernary) {
        packed_ = PackedTernary::pack(weight_);
        weight_ = Tensor();
    }
    format_ = format;
}

const CsrFilterBank &
Conv2d::csrWeight() const
{
    DLIS_CHECK(format_ == WeightFormat::Csr && bank_.has_value(),
               "conv '", name_, "' is not in CSR format");
    return *bank_;
}

const PackedTernary &
Conv2d::packedWeight() const
{
    DLIS_CHECK(format_ == WeightFormat::PackedTernary &&
               packed_.has_value(),
               "conv '", name_, "' is not in packed-ternary format");
    return *packed_;
}

void
Conv2d::setCsrWeight(CsrFilterBank bank)
{
    bank_ = std::move(bank);
    packed_.reset();
    weight_ = Tensor();
    format_ = WeightFormat::Csr;
}

void
Conv2d::setPackedWeight(PackedTernary packed)
{
    packed_ = std::move(packed);
    bank_.reset();
    weight_ = Tensor();
    format_ = WeightFormat::PackedTernary;
}

namespace {

/** Validate a keep-list against a channel count. */
void
checkKeepList(const std::vector<size_t> &keep, size_t limit,
              const std::string &what)
{
    DLIS_CHECK(!keep.empty(), "cannot prune every channel of ", what);
    DLIS_CHECK(std::is_sorted(keep.begin(), keep.end()) &&
               std::adjacent_find(keep.begin(), keep.end()) == keep.end(),
               "keep list for ", what, " must be sorted and unique");
    DLIS_CHECK(keep.back() < limit, "keep index ", keep.back(),
               " out of range for ", limit, " channels in ", what);
}

} // namespace

void
Conv2d::keepOutputChannels(const std::vector<size_t> &keep)
{
    DLIS_CHECK(format_ == WeightFormat::Dense,
               "channel surgery requires dense weights in '", name_,
               "'");
    checkKeepList(keep, cout_, name_);
    const size_t filter = cin_ * kernel_ * kernel_;
    Tensor w(Shape{keep.size(), cin_, kernel_, kernel_},
             MemClass::Weights);
    for (size_t i = 0; i < keep.size(); ++i) {
        std::copy_n(weight_.data() + keep[i] * filter, filter,
                    w.data() + i * filter);
    }
    if (withBias_) {
        Tensor b(Shape{keep.size()}, MemClass::Weights);
        for (size_t i = 0; i < keep.size(); ++i)
            b[i] = bias_[keep[i]];
        bias_ = std::move(b);
        gradBias_ = Tensor(Shape{keep.size()}, MemClass::Other);
    }
    weight_ = std::move(w);
    cout_ = keep.size();
    gradWeight_ =
        Tensor(Shape{cout_, cin_, kernel_, kernel_}, MemClass::Other);
}

void
Conv2d::keepInputChannels(const std::vector<size_t> &keep)
{
    DLIS_CHECK(format_ == WeightFormat::Dense,
               "channel surgery requires dense weights in '", name_,
               "'");
    checkKeepList(keep, cin_, name_);
    const size_t kk = kernel_ * kernel_;
    Tensor w(Shape{cout_, keep.size(), kernel_, kernel_},
             MemClass::Weights);
    for (size_t oc = 0; oc < cout_; ++oc) {
        for (size_t i = 0; i < keep.size(); ++i) {
            std::copy_n(
                weight_.data() + (oc * cin_ + keep[i]) * kk, kk,
                w.data() + (oc * keep.size() + i) * kk);
        }
    }
    weight_ = std::move(w);
    cin_ = keep.size();
    gradWeight_ =
        Tensor(Shape{cout_, cin_, kernel_, kernel_}, MemClass::Other);
}

} // namespace dlis

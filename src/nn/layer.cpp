#include "nn/layer.hpp"

#include "obs/metrics.hpp"

namespace dlis {

const char *
backendName(Backend b)
{
    switch (b) {
      case Backend::Serial: return "serial";
      case Backend::OpenMP: return "openmp";
    }
    return "?";
}

const char *
weightFormatName(WeightFormat f)
{
    switch (f) {
      case WeightFormat::Dense: return "dense";
      case WeightFormat::Csr:   return "csr";
      case WeightFormat::PackedTernary: return "packed-ternary";
    }
    return "?";
}

const char *
convAlgoName(ConvAlgo algo)
{
    switch (algo) {
      case ConvAlgo::Direct:     return "direct";
      case ConvAlgo::Im2colGemm: return "im2col-gemm";
    }
    return "?";
}

const char *
backendToken(Backend b)
{
    switch (b) {
      case Backend::Serial: return "serial";
      case Backend::OpenMP: return "openmp";
    }
    return "?";
}

bool
backendFromToken(const std::string &token, Backend &out)
{
    if (token == "serial") {
        out = Backend::Serial;
    } else if (token == "openmp") {
        out = Backend::OpenMP;
    } else {
        return false;
    }
    return true;
}

const char *
algoToken(ConvAlgo algo)
{
    switch (algo) {
      case ConvAlgo::Direct:     return "direct";
      case ConvAlgo::Im2colGemm: return "im2col";
    }
    return "?";
}

bool
algoFromToken(const std::string &token, ConvAlgo &out)
{
    if (token == "direct") {
        out = ConvAlgo::Direct;
    } else if (token == "im2col") {
        out = ConvAlgo::Im2colGemm;
    } else {
        return false;
    }
    return true;
}

Tensor
Layer::backward(const Tensor &gradOut, ExecContext &ctx)
{
    (void)gradOut;
    (void)ctx;
    fatal("layer '", name_, "' does not implement backward");
}

std::vector<Tensor *>
Layer::gradients()
{
    const std::vector<Tensor *> params = parameters();
    bool stale = grads_.size() != params.size();
    for (size_t i = 0; !stale && i < params.size(); ++i)
        stale = grads_[i].shape() != params[i]->shape();
    if (stale) {
        grads_.clear();
        grads_.reserve(params.size());
        // An empty parameter (dense weights dropped for a sparse
        // format) gets an empty gradient, not a one-element one.
        for (const Tensor *p : params)
            grads_.push_back(p->numel()
                                 ? Tensor(p->shape(), MemClass::Other)
                                 : Tensor());
    }
    std::vector<Tensor *> out;
    out.reserve(grads_.size());
    for (Tensor &g : grads_)
        out.push_back(&g);
    return out;
}

void
Layer::zeroGrad()
{
    for (Tensor *g : gradients())
        g->fill(0.0f);
}

LayerCost
Layer::cost(const Shape &input) const
{
    LayerCost c;
    c.name = name_;
    c.inputBytes = input.numel() * sizeof(float);
    c.outputBytes = outputShape(input).numel() * sizeof(float);
    c.parallel = false;
    return c;
}

KernelPolicy
Layer::kernelPolicy(const ExecContext &ctx) const
{
    KernelPolicy pol = ctx.policy();
    if (ctx.metrics)
        pol.counters = ctx.metrics->kernelCounters(name_);
    return pol;
}

size_t
Layer::parameterCount()
{
    size_t n = 0;
    for (Tensor *p : parameters())
        n += p->numel();
    return n;
}

} // namespace dlis

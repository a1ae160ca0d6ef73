#include "nn/layer.hpp"

#include "obs/metrics.hpp"

namespace dlis {

const char *
backendName(Backend b)
{
    switch (b) {
      case Backend::Serial:       return "serial";
      case Backend::OpenMP:       return "openmp";
      case Backend::OclHandTuned: return "opencl-hand-tuned";
      case Backend::OclGemmLib:   return "opencl-clblast";
    }
    return "?";
}

bool
runsOnHost(Backend b)
{
    return b == Backend::Serial || b == Backend::OpenMP;
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
      case Backend::Serial:       return "serial";
      case Backend::OpenMP:       return "openmp";
      case Backend::OclHandTuned: return "opencl";
      case Backend::OclGemmLib:   return "clblast";
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
    } else if (token == "opencl") {
        out = Backend::OclHandTuned;
    } else if (token == "clblast") {
        out = Backend::OclGemmLib;
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

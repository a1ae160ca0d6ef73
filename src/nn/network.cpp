#include "nn/network.hpp"

#include <chrono>

#include "nn/conv2d.hpp"
#include "nn/depthwise_conv2d.hpp"
#include "obs/trace.hpp"

namespace dlis {

Layer *
Network::add(LayerPtr layer)
{
    layers_.push_back(std::move(layer));
    return layers_.back().get();
}

Layer &
Network::layer(size_t i)
{
    DLIS_CHECK(i < layers_.size(), "layer index ", i,
               " out of range for ", layers_.size(), " layers");
    return *layers_[i];
}

void
Network::eraseLayer(size_t i)
{
    DLIS_CHECK(i < layers_.size(), "layer index ", i,
               " out of range for ", layers_.size(), " layers");
    layers_.erase(layers_.begin() + static_cast<ptrdiff_t>(i));
}

namespace {

/**
 * Forward @p layer with @p tail fused into its output store, under
 * @p ctx or — when a deployment plan bound to the context names this
 * layer — under a context copy carrying the plan's
 * backend/algorithm/threads. The copy shares the arena (a shared_ptr
 * bump), so the override path stays allocation-free. A fused tail
 * runs under its conv's configuration.
 */
Tensor
forwardLayer(Layer &layer, const ConvTail &tail, const Tensor &x,
             ExecContext &ctx)
{
    auto run = [&](ExecContext &c) {
        if (tail.layers() == 0)
            return layer.forward(x, c);
        if (auto *conv = dynamic_cast<Conv2d *>(&layer))
            return conv->forward(x, c, tail);
        return dynamic_cast<DepthwiseConv2d &>(layer).forward(x, c, tail);
    };
    if (ctx.layerOverrides) {
        const auto it = ctx.layerOverrides->find(layer.name());
        if (it != ctx.layerOverrides->end()) {
            ExecContext lctx = ctx;
            lctx.backend = it->second.backend;
            lctx.convAlgo = it->second.convAlgo;
            lctx.threads = it->second.threads;
            return run(lctx);
        }
    }
    return run(ctx);
}

} // namespace

Tensor
Network::forward(const Tensor &input, ExecContext &ctx)
{
    return run(input, ctx, nullptr);
}

Tensor
Network::forwardProfiled(const Tensor &input, ExecContext &ctx,
                         std::vector<LayerTiming> &timings)
{
    timings.clear();
    timings.reserve(layers_.size());
    return run(input, ctx, &timings);
}

Tensor
Network::run(const Tensor &input, ExecContext &ctx,
             std::vector<LayerTiming> *timings)
{
    Tensor x = input;
    for (size_t i = 0; i < layers_.size();) {
        Layer &layer = *layers_[i];
        const ConvTail tail =
            ctx.training ? ConvTail{} : inferenceTail(layers_, i);
        obs::TraceSpan span(ctx.tracer, layer.name(), "layer",
                            ctx.traceFlowId);
        std::chrono::steady_clock::time_point t0;
        if (timings)
            t0 = std::chrono::steady_clock::now();
        x = forwardLayer(layer, tail, x, ctx);
        if (timings) {
            const auto t1 = std::chrono::steady_clock::now();
            timings->push_back(
                {layer.name(),
                 std::chrono::duration<double>(t1 - t0).count()});
            // The fused layers ran inside the conv's store: no time
            // of their own.
            for (size_t f = 1; f <= tail.layers(); ++f)
                timings->push_back({layers_[i + f]->name(), 0.0});
        }
        i += 1 + tail.layers();
    }
    return x;
}

Tensor
Network::backward(const Tensor &gradLogits, ExecContext &ctx)
{
    Tensor g = gradLogits;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
        g = (*it)->backward(g, ctx);
    return g;
}

std::vector<Tensor *>
Network::parameters()
{
    std::vector<Tensor *> out;
    for (auto &layer : layers_)
        for (Tensor *p : layer->parameters())
            out.push_back(p);
    return out;
}

std::vector<Tensor *>
Network::gradients()
{
    std::vector<Tensor *> out;
    for (auto &layer : layers_)
        for (Tensor *g : layer->gradients())
            out.push_back(g);
    return out;
}

void
Network::zeroGrad()
{
    for (auto &layer : layers_)
        layer->zeroGrad();
}

size_t
Network::parameterCount()
{
    size_t n = 0;
    for (auto &layer : layers_)
        n += layer->parameterCount();
    return n;
}

std::vector<LayerCost>
Network::costs(const Shape &input) const
{
    std::vector<LayerCost> out;
    out.reserve(layers_.size());
    Shape s = input;
    for (const auto &layer : layers_) {
        out.push_back(layer->cost(s));
        s = layer->outputShape(s);
    }
    return out;
}

Shape
Network::outputShape(const Shape &input) const
{
    Shape s = input;
    for (const auto &layer : layers_)
        s = layer->outputShape(s);
    return s;
}

} // namespace dlis

/**
 * @file
 * Sequential network container.
 *
 * All three paper models are expressible as a sequence of layers
 * (ResNet's skip connections live inside the composite ResidualBlock
 * layer), which matches the paper's per-layer synchronisation model:
 * "the execution of the threads is synchronised on each neural network
 * layer" (§IV-D).
 */

#ifndef DLIS_NN_NETWORK_HPP
#define DLIS_NN_NETWORK_HPP

#include <memory>
#include <string>
#include <vector>

#include "nn/layer.hpp"

namespace dlis {

/** Wall-clock seconds one layer took during a profiled forward. */
struct LayerTiming
{
    std::string name;
    double seconds = 0.0;
};

/** An ordered stack of layers executed with a barrier between layers. */
class Network
{
  public:
    Network() = default;
    explicit Network(std::string name) : name_(std::move(name)) {}

    Network(Network &&) noexcept = default;
    Network &operator=(Network &&) noexcept = default;

    /** Model name, e.g. "vgg16". */
    const std::string &name() const { return name_; }

    /** Append a layer; returns a non-owning typed pointer to it. */
    template <typename L, typename... Args>
    L *
    emplace(Args &&...args)
    {
        auto layer = std::make_unique<L>(std::forward<Args>(args)...);
        L *raw = layer.get();
        layers_.push_back(std::move(layer));
        return raw;
    }

    /** Append an already-built layer. */
    Layer *add(LayerPtr layer);

    /** The layers, in execution order. */
    const std::vector<LayerPtr> &layers() const { return layers_; }

    /** Number of layers. */
    size_t size() const { return layers_.size(); }

    /** Layer by index. */
    Layer &layer(size_t i);

    /** Remove the layer at index @p i (used by BN folding). */
    void eraseLayer(size_t i);

    /**
     * Run the network. At inference (!ctx.training) each conv runs
     * the BatchNorm2d and/or ReLU after it in its output store
     * (inferenceTail, nn/conv_tail.hpp); those layers run no pass of
     * their own. The output is bit-identical to calling each layer's
     * forward in turn. Training runs every layer on its own.
     */
    Tensor forward(const Tensor &input, ExecContext &ctx);

    /**
     * forward(), recording wall-clock time per layer, one entry per
     * layer in order; a layer fused into a conv's store reads 0 s (its
     * work is in the conv's time).
     */
    Tensor forwardProfiled(const Tensor &input, ExecContext &ctx,
                           std::vector<LayerTiming> &timings);

    /** Back-propagate from dL/d(logits); returns dL/d(input). */
    Tensor backward(const Tensor &gradLogits, ExecContext &ctx);

    /** All trainable parameters, in layer order (recursive). */
    std::vector<Tensor *> parameters();

    /** All gradients, aligned with parameters(). */
    std::vector<Tensor *> gradients();

    /** Zero every gradient. */
    void zeroGrad();

    /** Total trainable parameter count. */
    size_t parameterCount();

    /** Per-layer cost facts for an input of the given shape. */
    std::vector<LayerCost> costs(const Shape &input) const;

    /** Output shape for the given input shape. */
    Shape outputShape(const Shape &input) const;

  private:
    Tensor run(const Tensor &input, ExecContext &ctx,
               std::vector<LayerTiming> *timings);

    std::string name_;
    std::vector<LayerPtr> layers_;
};

} // namespace dlis

#endif // DLIS_NN_NETWORK_HPP

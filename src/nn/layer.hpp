/**
 * @file
 * Abstract network layer.
 *
 * Layers own their parameters, support forward on any backend and
 * backward on the serial backend (training always runs serially; the
 * paper trains offline and characterises inference). Gradients are
 * training state: the base class allocates them on first use, so an
 * inference-only model holds its parameters and nothing more.
 */

#ifndef DLIS_NN_LAYER_HPP
#define DLIS_NN_LAYER_HPP

#include <memory>
#include <string>
#include <vector>

#include "core/tensor.hpp"
#include "nn/exec_context.hpp"

namespace dlis {

/** Base class of every network layer. */
class Layer
{
  public:
    explicit Layer(std::string name) : name_(std::move(name)) {}
    virtual ~Layer() = default;

    Layer(const Layer &) = delete;
    Layer &operator=(const Layer &) = delete;

    /** Layer's display name (e.g. "conv3"). */
    const std::string &name() const { return name_; }

    /** Shape this layer produces for @p input shape. */
    virtual Shape outputShape(const Shape &input) const = 0;

    /** Run the layer. With ctx.training the input is cached. */
    virtual Tensor forward(const Tensor &input, ExecContext &ctx) = 0;

    /**
     * Back-propagate: consume dL/d(output), accumulate parameter
     * gradients, return dL/d(input). Requires a prior training-mode
     * forward. Layers that are inference-only throw.
     */
    virtual Tensor backward(const Tensor &gradOut, ExecContext &ctx);

    /** Trainable parameter tensors (may be empty). */
    virtual std::vector<Tensor *> parameters() { return {}; }

    /**
     * Gradient tensors, aligned with parameters(): zero-filled
     * MemClass::Other tensors of the parameters' shapes. They are
     * allocated on the first call and re-allocated (zeroed) whenever
     * the parameter count or a parameter's shape no longer matches
     * them (channel surgery, enableBias, a format switch).
     */
    virtual std::vector<Tensor *> gradients();

    /** Zero all gradient tensors. */
    void zeroGrad();

    /** Cost facts for an input of the given shape. */
    virtual LayerCost cost(const Shape &input) const;

    /** Total trainable parameter count. */
    size_t parameterCount();

  protected:
    /**
     * ctx.policy() with this layer's counter handles attached when
     * ctx.metrics is set, so kernel counts are attributed under this
     * layer's name. One registry acquisition per layer invocation.
     */
    KernelPolicy kernelPolicy(const ExecContext &ctx) const;

    std::string name_;

  private:
    std::vector<Tensor> grads_; //!< built by gradients() on first use
};

using LayerPtr = std::unique_ptr<Layer>;

} // namespace dlis

#endif // DLIS_NN_LAYER_HPP

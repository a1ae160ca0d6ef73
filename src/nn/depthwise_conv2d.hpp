/**
 * @file
 * Depthwise 2-D convolution (MobileNet's 3x3 stage).
 *
 * One kh*kw filter per channel; channel count is preserved. Channel
 * surgery removes whole filters when the producing pointwise layer is
 * pruned.
 */

#ifndef DLIS_NN_DEPTHWISE_CONV2D_HPP
#define DLIS_NN_DEPTHWISE_CONV2D_HPP

#include <vector>

#include "nn/conv_tail.hpp"
#include "nn/layer.hpp"

namespace dlis {

/** A depthwise (per-channel) convolution. */
class DepthwiseConv2d : public Layer
{
  public:
    /**
     * @param channels channels (input == output)
     * @param kernel   square kernel size
     * @param stride   spatial stride
     * @param pad      zero padding
     */
    DepthwiseConv2d(std::string name, size_t channels, size_t kernel,
                    size_t stride, size_t pad);

    /** Initialise weights Kaiming-style. */
    void initKaiming(Rng &rng);

    /** Add a zero per-channel bias (used by BN folding). */
    void enableBias();

    /** True when a bias vector is present. */
    bool hasBias() const { return withBias_; }

    /** The bias vector. @pre hasBias(). */
    Tensor &bias() { return bias_; }
    const Tensor &bias() const { return bias_; }

    Shape outputShape(const Shape &input) const override;
    Tensor forward(const Tensor &input, ExecContext &ctx) override;

    /**
     * Inference forward that also runs @p tail in the kernel's output
     * store (nn/conv_tail.hpp). An empty tail is forward(input, ctx).
     */
    Tensor forward(const Tensor &input, ExecContext &ctx,
                   const ConvTail &tail);
    Tensor backward(const Tensor &gradOut, ExecContext &ctx) override;
    std::vector<Tensor *> parameters() override;
    LayerCost cost(const Shape &input) const override;

    size_t channels() const { return channels_; }
    size_t kernel() const { return kernel_; }
    size_t stride() const { return stride_; }
    size_t pad() const { return pad_; }

    /** The C1HW weight tensor. */
    Tensor &weight() { return weight_; }
    const Tensor &weight() const { return weight_; }

    /** Keep only the listed channels (sorted, unique). */
    void keepChannels(const std::vector<size_t> &keep);

  private:
    ConvParams paramsFor(const Shape &input) const;

    size_t channels_, kernel_, stride_, pad_;
    bool withBias_ = false;
    Tensor weight_; //!< [channels, 1, k, k]
    Tensor bias_;
    Tensor cachedInput_;
};

} // namespace dlis

#endif // DLIS_NN_DEPTHWISE_CONV2D_HPP

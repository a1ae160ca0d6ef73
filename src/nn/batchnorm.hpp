/**
 * @file
 * 2-D batch normalisation.
 *
 * Training mode normalises with batch statistics and maintains running
 * estimates; inference mode folds the running statistics into a scale
 * and shift (the kernel in backend/elementwise_kernels).
 */

#ifndef DLIS_NN_BATCHNORM_HPP
#define DLIS_NN_BATCHNORM_HPP

#include <vector>

#include "nn/layer.hpp"

namespace dlis {

/** Per-channel batch normalisation over NCHW activations. */
class BatchNorm2d : public Layer
{
  public:
    BatchNorm2d(std::string name, size_t channels, float eps = 1e-5f,
                float momentum = 0.1f);

    Shape outputShape(const Shape &input) const override;
    Tensor forward(const Tensor &input, ExecContext &ctx) override;
    Tensor backward(const Tensor &gradOut, ExecContext &ctx) override;
    std::vector<Tensor *> parameters() override;
    LayerCost cost(const Shape &input) const override;

    size_t channels() const { return channels_; }
    float eps() const { return eps_; }

    /** @name Learnable and running statistics (per channel). */
    /** @{ */
    Tensor &gamma() { return gamma_; }
    Tensor &beta() { return beta_; }
    Tensor &runningMean() { return runningMean_; }
    Tensor &runningVar() { return runningVar_; }
    const Tensor &gamma() const { return gamma_; }
    const Tensor &beta() const { return beta_; }
    const Tensor &runningMean() const { return runningMean_; }
    const Tensor &runningVar() const { return runningVar_; }
    /** @} */

    /** Keep only the listed channels (sorted, unique). */
    void keepChannels(const std::vector<size_t> &keep);

  private:
    size_t channels_;
    float eps_, momentum_;
    Tensor gamma_, beta_;
    Tensor runningMean_, runningVar_;

    // Training caches.
    Tensor cachedInput_;
    std::vector<float> batchMean_, batchVar_;
};

} // namespace dlis

#endif // DLIS_NN_BATCHNORM_HPP

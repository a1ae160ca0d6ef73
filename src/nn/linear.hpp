/**
 * @file
 * Fully-connected (linear) layer with dense and CSR formats.
 */

#ifndef DLIS_NN_LINEAR_HPP
#define DLIS_NN_LINEAR_HPP

#include <optional>
#include <vector>

#include "nn/layer.hpp"
#include "sparse/csr.hpp"

namespace dlis {

/** y = W x + b over flattened features. Accepts [n, f] or [n,c,h,w]. */
class Linear : public Layer
{
  public:
    Linear(std::string name, size_t inFeatures, size_t outFeatures);

    /** Initialise weights Kaiming-style. */
    void initKaiming(Rng &rng);

    Shape outputShape(const Shape &input) const override;
    Tensor forward(const Tensor &input, ExecContext &ctx) override;
    Tensor backward(const Tensor &gradOut, ExecContext &ctx) override;
    std::vector<Tensor *> parameters() override;
    LayerCost cost(const Shape &input) const override;

    size_t inFeatures() const { return inFeatures_; }
    size_t outFeatures() const { return outFeatures_; }

    /** Dense [out, in] weight matrix. */
    Tensor &weight() { return weight_; }
    const Tensor &weight() const { return weight_; }

    /** Bias vector. */
    Tensor &bias() { return bias_; }
    const Tensor &bias() const { return bias_; }

    /** Current weight format. */
    WeightFormat format() const { return format_; }

    /** Switch between dense and CSR, as Conv2d::setFormat. */
    void setFormat(WeightFormat format);

    /** Flat CSR weights. @pre format() == WeightFormat::Csr. */
    const CsrMatrix &csrWeight() const;

    /**
     * Keep only input features corresponding to the kept channels of a
     * preceding conv: channel c with @p spatial pixels maps to features
     * [c*spatial, (c+1)*spatial).
     */
    void keepInputChannels(const std::vector<size_t> &keep,
                           size_t spatial);

  private:
    size_t inFeatures_, outFeatures_;
    WeightFormat format_ = WeightFormat::Dense;
    Tensor weight_; //!< [out, in] (empty while format is Csr)
    Tensor bias_;
    std::optional<CsrMatrix> csr_;
    Tensor cachedInput_;
};

} // namespace dlis

#endif // DLIS_NN_LINEAR_HPP

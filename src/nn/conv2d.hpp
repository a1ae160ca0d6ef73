/**
 * @file
 * 2-D convolution layer.
 *
 * Supports every cell of the paper's configuration matrix:
 *  - formats: dense OIHW weights or CSR ([cout, cin*kh*kw]);
 *  - algorithms: direct convolution or im2col + GEMM;
 *  - backends: serial and OpenMP. The simulated OpenCL backends are
 *    estimate-only (hw/cost_model); a forward under them throws.
 *
 * Channel surgery (keepOutputChannels / keepInputChannels) implements
 * the "recast as a new dense network" step of channel pruning (§III-B).
 */

#ifndef DLIS_NN_CONV2D_HPP
#define DLIS_NN_CONV2D_HPP

#include <optional>
#include <vector>

#include "nn/layer.hpp"
#include "sparse/csr_filter_bank.hpp"
#include "sparse/packed_ternary.hpp"

namespace dlis {

/** A standard (dense-connectivity) 2-D convolution. */
class Conv2d : public Layer
{
  public:
    /**
     * @param name     display name
     * @param cin      input channels
     * @param cout     output channels
     * @param kernel   square kernel size
     * @param stride   spatial stride
     * @param pad      zero padding
     * @param withBias add a per-channel bias (conv+BN stacks omit it)
     */
    Conv2d(std::string name, size_t cin, size_t cout, size_t kernel,
           size_t stride, size_t pad, bool withBias = true);

    /** Initialise weights Kaiming-style. */
    void initKaiming(Rng &rng);

    /** Add a zero bias to a conv built without one (BN folding). */
    void enableBias();

    Shape outputShape(const Shape &input) const override;
    Tensor forward(const Tensor &input, ExecContext &ctx) override;
    Tensor backward(const Tensor &gradOut, ExecContext &ctx) override;
    std::vector<Tensor *> parameters() override;
    std::vector<Tensor *> gradients() override;
    LayerCost cost(const Shape &input) const override;

    /** @name Geometry accessors. */
    /** @{ */
    size_t cin() const { return cin_; }
    size_t cout() const { return cout_; }
    size_t kernel() const { return kernel_; }
    size_t stride() const { return stride_; }
    size_t pad() const { return pad_; }
    bool hasBias() const { return withBias_; }
    /** @} */

    /** The dense OIHW weight tensor. */
    Tensor &weight() { return weight_; }
    const Tensor &weight() const { return weight_; }

    /** The bias vector (empty tensor when constructed without bias). */
    Tensor &bias() { return bias_; }
    const Tensor &bias() const { return bias_; }

    /** Kernel geometry of this conv applied to @p input (NCHW). */
    ConvParams paramsFor(const Shape &input) const;

    /** Current weight format. */
    WeightFormat format() const { return format_; }

    /**
     * Switch formats. Moving to Csr builds the CSR image of the dense
     * weights and releases the dense copy (as deployment would);
     * moving back to Dense re-materialises them from CSR.
     */
    void setFormat(WeightFormat format);

    /** Per-slice CSR weights. @pre format() == WeightFormat::Csr. */
    const CsrFilterBank &csrWeight() const;

    /**
     * Packed ternary weights.
     * @pre format() == WeightFormat::PackedTernary.
     */
    const PackedTernary &packedWeight() const;

    /**
     * Install externally built CSR weights, as model deserialisation
     * would. Drops the dense copy and switches format() to Csr. The
     * image is trusted as-is; run the analysis verifier to validate it.
     */
    void setCsrWeight(CsrFilterBank bank);

    /**
     * Install externally built packed-ternary weights (see
     * setCsrWeight; same trust model).
     */
    void setPackedWeight(PackedTernary packed);

    /** Keep only the listed output channels (sorted, unique). */
    void keepOutputChannels(const std::vector<size_t> &keep);

    /** Keep only the listed input channels (sorted, unique). */
    void keepInputChannels(const std::vector<size_t> &keep);

  private:
    Tensor forwardIm2col(const Tensor &input, ExecContext &ctx);

    size_t cin_, cout_, kernel_, stride_, pad_;
    bool withBias_;
    WeightFormat format_ = WeightFormat::Dense;

    Tensor weight_;    //!< OIHW (empty while format is Csr)
    Tensor bias_;
    Tensor gradWeight_;
    Tensor gradBias_;
    std::optional<CsrFilterBank> bank_;
    std::optional<PackedTernary> packed_;

    Tensor cachedInput_; //!< training-mode cache for backward
};

} // namespace dlis

#endif // DLIS_NN_CONV2D_HPP

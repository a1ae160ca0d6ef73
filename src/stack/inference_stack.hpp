/**
 * @file
 * InferenceStack: one fully-configured point in the paper's Deep
 * Learning Inference Stack (Table I) — a model (layer 1), a
 * compression technique (layer 2), a weight format (layer 3) — ready
 * to be executed by a systems backend (layer 4) and timed on a
 * hardware model (layer 5).
 *
 * Building a stack performs the real work: the model is constructed,
 * compressed (magnitude masks, channel surgery, or ternary
 * projection), and converted to its deployment format; measurements
 * (host wall-clock, byte-exact footprint, per-stage cost facts for the
 * simulated platforms) are then taken from the actual artefact.
 */

#ifndef DLIS_STACK_INFERENCE_STACK_HPP
#define DLIS_STACK_INFERENCE_STACK_HPP

#include <array>
#include <string>

#include "nn/models/model.hpp"
#include "nn/shape_walk.hpp"
#include "obs/stats.hpp"

namespace dlis {

/** Machine-learning-layer candidate (paper Table II). */
enum class Technique
{
    None,           //!< the plain dense model
    WeightPruning,  //!< Deep-Compression magnitude pruning
    ChannelPruning, //!< Fisher-style structural pruning
    Quantisation,   //!< trained ternary quantisation
};

/** Human-readable technique name. */
const char *techniqueName(Technique t);

/** Full configuration of one stack instance. */
struct StackConfig
{
    std::string modelName = "vgg16";
    Technique technique = Technique::None;
    double widthMult = 1.0; //!< 1.0 = paper scale
    size_t classes = 10;

    double wpSparsity = 0.0;   //!< weight-pruning target sparsity
    double cpRate = 0.0;       //!< channel-pruning parameter removal
    double ttqThreshold = 0.0; //!< TTQ threshold t
    double ttqSparsity = -1.0; //!< >= 0 pins the TTQ zero fraction

    /** Deployment format (the paper uses CSR for WP and TTQ). */
    WeightFormat format = WeightFormat::Dense;

    uint64_t seed = 1;
};

/** Byte-exact runtime footprint decomposition. */
struct Footprint
{
    size_t total = 0;       //!< peak live bytes during one inference
    size_t weights = 0;     //!< parameter payload
    size_t sparseMeta = 0;  //!< CSR index/pointer arrays
    size_t activations = 0; //!< peak activation buffers
    size_t scratch = 0;     //!< im2col / padding workspace peak
};

/** A built, compressed, formatted model plus its measurement tools. */
class InferenceStack
{
  public:
    /** Build the configured stack (does the compression for real). */
    explicit InferenceStack(StackConfig config);

    const StackConfig &config() const { return config_; }

    /** The underlying model (mutable: backends need format access). */
    Model &model() { return model_; }

    /** Canonical input shape [batch, 3, 32, 32]. */
    Shape inputShape(size_t batch = 1) const;

    /** Per-sync-point cost facts (residual blocks expanded). */
    std::vector<LayerCost> stageCosts(size_t batch = 1) const;

    /** Fraction of dense MACs the configured stack still executes. */
    double macFraction(size_t batch = 1) const;

    /**
     * Real wall-clock seconds of one inference on this host with the
     * given context (median of @p reps runs).
     */
    double measureHostSeconds(ExecContext &ctx, size_t reps = 3,
                              size_t batch = 1);

    /**
     * Full latency distribution (p50/p90/p99/mean) over @p reps
     * repeated forwards on this host. Any tracer/metrics attached to
     * @p ctx observe every repeat, so one call yields the latency
     * stats, the per-layer spans, and the kernel counters of the same
     * run.
     */
    obs::LatencyStats measureHostStats(ExecContext &ctx, size_t reps,
                                       size_t batch = 1);

    /**
     * Peak-byte footprint of one inference (serial). The paper's
     * baseline experiments use direct convolution; §V-D notes the
     * footprint "would be different for other algorithms ... such as
     * im2col", which the @p algo parameter lets you measure (the
     * im2col scratch buffer shows up in Footprint::scratch).
     */
    Footprint measureFootprint(size_t batch = 1,
                               ConvAlgo algo = ConvAlgo::Direct);

    /** Parameters removed by channel pruning (0 for others). */
    double achievedCompressionRate() const;

    /**
     * Logical parameter count of the deployed model (captured before
     * format conversion — CSR/packed formats release the dense
     * tensors, so Network::parameterCount() undercounts afterwards).
     */
    size_t parameterCount() const { return deployedParams_; }

    /** Fraction of zero weights in the deployed model. */
    double achievedSparsity() const { return model_.weightSparsity(); }

  private:
    void applyTechnique();

    StackConfig config_;
    Model model_;
    size_t denseParams_ = 0;
    size_t deployedParams_ = 0;
    std::array<size_t, 2> baseline_{}; //!< weights, meta before build
};

/**
 * Structural channel pruning to a parameter-count target: keeps the
 * highest-L1-norm channels in every prune unit at a fraction found by
 * bisection so the removed-parameter rate matches @p targetRate.
 * (The Fisher pruner in src/compress chooses *which* channels to drop
 * with training in the loop; this data-free variant reproduces the
 * paper's published compression rates exactly for the systems-layer
 * benchmarks.)
 */
void applyChannelPruningToRate(Model &model, const StackConfig &config,
                               double targetRate);

} // namespace dlis

#endif // DLIS_STACK_INFERENCE_STACK_HPP

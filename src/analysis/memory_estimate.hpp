/**
 * @file
 * Static per-layer memory high-water estimate.
 *
 * Predicts, without allocating or executing, the peak bytes the
 * MemoryTracker will observe for one inference: the paper's Tables IV
 * and VI are made of exactly these numbers, and TASO-style deployment
 * planning needs them *before* the first forward runs on a
 * memory-constrained target.
 *
 * The model mirrors the runtime's allocation lifetimes precisely:
 * the measurement harness holds the input tensor for the whole
 * forward, Network::forward copies it into its layer cursor, and each
 * layer's forward allocates its output (plus per-layer transients —
 * the ReLU copy, the BatchNorm output, the im2col column buffer, the
 * residual block's skip copy) while its input is still live. For the
 * serial dense direct configuration the estimate matches the tracker's
 * observed peak byte-for-byte (tests/test_analysis.cpp pins this on
 * all three paper models).
 */

#ifndef DLIS_ANALYSIS_MEMORY_ESTIMATE_HPP
#define DLIS_ANALYSIS_MEMORY_ESTIMATE_HPP

#include <string>
#include <unordered_map>
#include <vector>

#include "nn/exec_context.hpp"
#include "nn/network.hpp"

namespace dlis::analysis {

/** One layer's contribution to the forward-pass high-water mark. */
struct LayerMemory
{
    std::string name;
    size_t inputBytes = 0;  //!< live activation input to the layer
    size_t outputBytes = 0; //!< activation the layer hands onward
    /**
     * Peak activation bytes *allocated by this layer's forward* while
     * its input is live (includes the output; excludes the input).
     */
    size_t transientBytes = 0;
    /**
     * The layer's scratch-arena demand: the sum of the aligned blocks
     * its kernels bump-allocate within one arena scope (im2col
     * columns, per-thread GEMM C tiles).
     */
    size_t scratchBytes = 0;
};

/** Static memory high-water decomposition, in MemoryTracker classes. */
struct MemoryEstimate
{
    size_t weights = 0;         //!< parameter payload (MemClass::Weights)
    size_t sparseMeta = 0;      //!< CSR/ternary metadata (SparseMeta)
    size_t activationsPeak = 0; //!< peak live activation bytes
    /**
     * Peak scratch bytes — the capacity the context's grow-only
     * ScratchArena settles at, i.e. the largest per-layer arena
     * demand. This is also the steady-state scratch footprint: the
     * arena keeps its capacity across forwards.
     */
    size_t scratchPeak = 0;
    std::vector<LayerMemory> perLayer;

    /** Peak total footprint (weights + meta + activations + scratch). */
    size_t
    total() const
    {
        return weights + sparseMeta + activationsPeak + scratchPeak;
    }
};

/**
 * Estimate the tracker-observed peak of one inference of @p net on
 * @p input under the given backend, convolution algorithm, and thread
 * count (@p threads sizes the per-thread GEMM C tiles the OpenMP
 * backend draws from the scratch arena; Serial runs the GEMM
 * serially). The estimate-only OpenCL backends, which the host cannot
 * execute, are priced like the direct path: each conv's output and no
 * host scratch. Inference mode only (training caches are not
 * modelled). Shapes must be consistent — run the verifier first; this
 * throws FatalError on a malformed network just like the runtime
 * would.
 */
MemoryEstimate estimateForwardMemory(const Network &net,
                                     const Shape &input,
                                     Backend backend = Backend::Serial,
                                     ConvAlgo algo = ConvAlgo::Direct,
                                     int threads = 1);

/**
 * Plan-aware variant: estimate the tracker-observed peak when the
 * forward executes under @p overrides, i.e. exactly what
 * Network::forwardLayer does when ExecContext::layerOverrides is set —
 * a layer named in the map runs under its override's backend /
 * convolution algorithm / thread count (residual blocks as one unit),
 * every other layer under the defaults. Because the context's
 * ScratchArena grows exactly and never returns retired capacity, the
 * Scratch high-water of a mixed assignment is the *largest* per-layer
 * demand under that layer's own configuration, and the Activations
 * high-water composes per layer the same way — both are reproduced
 * byte-exactly here (pinned against MemoryTracker in
 * tests/test_analysis.cpp for mixed plans on the paper models).
 */
MemoryEstimate memoryEstimateForPlan(
    const Network &net, const Shape &input,
    const std::unordered_map<std::string, LayerExecOverride> &overrides,
    Backend defaultBackend = Backend::Serial,
    ConvAlgo defaultAlgo = ConvAlgo::Direct, int defaultThreads = 1);

/**
 * One layer's memory contribution under one concrete configuration:
 * the building block the memory-budgeted planner prices candidates
 * with. @p input is the activation shape entering the layer. The
 * returned transient/scratch figures are the same per-layer terms the
 * whole-network estimators above take their maxima over.
 */
LayerMemory layerForwardMemory(const Layer &layer, const Shape &input,
                               Backend backend, ConvAlgo algo,
                               int threads);

} // namespace dlis::analysis

#endif // DLIS_ANALYSIS_MEMORY_ESTIMATE_HPP

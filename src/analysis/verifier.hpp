/**
 * @file
 * Static verifier: prove a model + format + backend + algorithm
 * combination well-formed without allocating activations or running a
 * forward.
 *
 * The paper's lesson is that optimisations interact across stack
 * layers; each interaction carries invariants that the runtime only
 * checks (or silently assumes) deep inside kernels. The verifier walks
 * a constructed Network symbolically and checks, ahead of execution:
 *
 *  - NCHW shape/channel inference for every layer, including the
 *    layers nested inside residual blocks;
 *  - algorithm capability rules (CSR and packed weights pin the
 *    direct algorithm);
 *  - sparse-format invariants (row_ptr monotone, columns sorted and in
 *    range, byte accounting, ternary codebook well-formed);
 *  - aliasing/in-place hazards (the residual skip-add shape contract,
 *    conv->BN pairs foldBatchNorms would reject);
 *  - a static per-layer memory high-water estimate (see
 *    memory_estimate.hpp) cross-checked at runtime via the RunReport.
 *
 * `stack_cli --verify` and the serving engine's pool-startup pre-flight
 * are the two front ends.
 */

#ifndef DLIS_ANALYSIS_VERIFIER_HPP
#define DLIS_ANALYSIS_VERIFIER_HPP

#include "analysis/diagnostic.hpp"
#include "analysis/memory_estimate.hpp"
#include "nn/network.hpp"

namespace dlis::analysis {

/** The stack configuration a network is verified against. */
struct VerifyOptions
{
    Shape input;                         //!< NCHW input, e.g. {1,3,32,32}
    Backend backend = Backend::Serial;
    ConvAlgo convAlgo = ConvAlgo::Direct;
    int threads = 1;
    bool estimateMemory = true; //!< fill VerifyReport::memory
};

/** Everything the verifier found, plus the memory estimate. */
struct VerifyReport
{
    std::vector<Diagnostic> diagnostics;
    MemoryEstimate memory; //!< valid when memoryEstimated
    bool memoryEstimated = false;

    /** True when no Error-severity diagnostic was produced. */
    bool ok() const;

    /** Number of diagnostics at @p severity. */
    size_t count(Severity severity) const;

    /** True when some diagnostic carries check code @p c. */
    bool has(Check c) const;

    /** First Error diagnostic rendered, or "" when ok(). */
    std::string firstError() const;

    /** Multi-line rendering of every diagnostic plus a verdict. */
    std::string str() const;
};

/**
 * Verify @p net against @p options. Never allocates activations and
 * never executes a kernel; never throws on a malformed model — every
 * defect becomes a Diagnostic.
 */
VerifyReport verifyNetwork(const Network &net,
                           const VerifyOptions &options);

/**
 * Capability diagnostics for running ONE layer under @p algo: exactly
 * the format/algorithm rules verifyNetwork applies net-wide, scoped to
 * a single layer. Residual blocks check every inner convolution. The
 * one rule is a Warning: the point executes, but not as requested
 * (sparse weights pin the direct kernel). validatePlan reports it per
 * plan layer.
 */
std::vector<Diagnostic> checkLayerExecution(const Layer &layer,
                                            ConvAlgo algo);

} // namespace dlis::analysis

#endif // DLIS_ANALYSIS_VERIFIER_HPP

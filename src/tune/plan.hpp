/**
 * @file
 * DeploymentPlan: the versioned, host-fingerprinted artifact the
 * per-layer auto-tuner emits (and InferenceStack / the serving engine
 * execute).
 *
 * A plan records, for every tunable layer of one network, the
 * {backend, algorithm, thread-count} the tuner measured fastest on
 * this host, plus enough identity to refuse execution anywhere it
 * does not apply: a schema version, a fingerprint of the machine that
 * produced the measurements (hostname, CPU count, resolved SIMD ISA),
 * and a structural signature of the network it was tuned for. TASO's
 * lesson (PAPERS.md) is that a searched optimisation is only reusable
 * as a cached artifact if its validity conditions travel with it —
 * the serve pre-flight and `stack_cli --plan` reject a stale or
 * foreign plan with stable diagnostic codes instead of silently
 * running the wrong configuration.
 *
 * Serialization is canonical JSON: fixed key order, `%.17g` doubles
 * (round-trip exact for IEEE binary64), one layer object per entry —
 * parse(render(p)) re-renders byte-identically, which the golden-file
 * tests pin.
 */

#ifndef DLIS_TUNE_PLAN_HPP
#define DLIS_TUNE_PLAN_HPP

#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "nn/network.hpp"

namespace dlis::tune {

/**
 * Schema version written to (and required of) every plan file.
 * v6 restricted every backend to the host's CPU backends, made
 * peak_bytes_bound mandatory and dropped one algorithm token
 * (DESIGN.md §13); v5 dropped the per-layer cost-model seed; v4
 * replaced the static error bounds with measured deviations (top-level
 * and per-layer max_abs_dev); v3 added the memory-planning fields
 * (mem_budget, peak_bytes_bound); v2 added error_budget. Older plans
 * parse but fail validatePlan with PlanVersion — re-run --tune —
 * except one naming a token this build lacks (the `winograd`
 * algorithm, the `opencl`/`clblast` backends), which fails to parse
 * (PlanParse).
 */
constexpr int kPlanVersion = 6;

/** One tuned layer: the winning point of its search. */
struct LayerPlan
{
    std::string layer; //!< top-level layer name (unique per model)
    Backend backend = Backend::Serial;
    ConvAlgo algo = ConvAlgo::Direct;
    int threads = 1;
    double measuredSeconds = 0.0; //!< median of the winning point

    /**
     * Measured max |out - ref| of this layer's point against its
     * serial/direct output on the tuner's seeded layer input.
     */
    double maxAbsDev = 0.0;
};

/** A complete per-layer deployment plan for one network + host. */
struct DeploymentPlan
{
    int version = kPlanVersion;
    std::string model;            //!< StackConfig::modelName
    std::string networkSignature; //!< networkSignature() of the net
    std::string hostFingerprint;  //!< hostFingerprint() at tune time
    uint64_t seed = 0;            //!< tuner measurement-input seed

    /**
     * Base configuration the non-overridden layers (elementwise, BN,
     * pooling) run under. Restricted to the CPU backends, like every
     * layer entry: the base config only decides whether those layers
     * join the parallel loop.
     */
    Backend defaultBackend = Backend::Serial;
    int defaultThreads = 1;

    double tunedP50 = 0.0;      //!< e2e p50 executing this plan
    double bestGlobalP50 = 0.0; //!< e2e p50 of the best single config
    std::string bestGlobalConfig; //!< e.g. "openmp/im2col/t4"

    /** Budget the tuner enforced (--error-budget; 0 = none). */
    double errorBudget = 0.0;

    /**
     * Measured max |plan forward - serial/direct forward| on the
     * tuner's seeded network input. The serving pre-flight warns
     * when this exceeds the engine's configured budget.
     */
    double maxAbsDev = 0.0;

    /** Peak-memory budget the planner enforced (--mem-budget bytes;
     *  0 = unconstrained). */
    size_t memBudget = 0;

    /**
     * Static peak total footprint (weights + sparse metadata +
     * activation high-water + scratch high-water, batch 1) of the
     * chosen per-layer assignment, from
     * planPeakBytes — an upper bound on the MemoryTracker-observed
     * peak of executing this plan. The serving pre-flight sizes
     * replicas from it, so validatePlan requires it to equal this
     * build's estimate.
     */
    size_t peakBytesBound = 0;

    std::vector<LayerPlan> layers;
};

/**
 * Static peak total footprint of executing @p plan on @p net at
 * @p input (analysis::memoryEstimateForPlan over the plan's per-layer
 * points and base config): the value peak_bytes_bound must record.
 */
size_t planPeakBytes(const DeploymentPlan &plan, const Network &net,
                     const Shape &input);

/**
 * Thrown when a plan cannot be parsed or loaded at all (truncated or
 * hand-corrupted JSON, missing file, type mismatch). Carries the
 * stable diagnostic code tests assert on. Parsing is all-or-nothing:
 * a PlanError means no part of the plan was applied anywhere.
 */
class PlanError : public std::runtime_error
{
  public:
    PlanError(analysis::Check code, const std::string &detail);

    /** The stable diagnostic code (PlanParse, BadConfig, ...). */
    analysis::Check code() const { return code_; }

  private:
    analysis::Check code_;
};

/**
 * This host's measurement identity: "hostname/cpu<N>/<isa>". Plans
 * fingerprint the resolved SIMD ISA too, so a scalar-pinned run
 * (DLIS_FORCE_ISA=scalar) caches and validates separately from a
 * dispatched one — their measured times are not interchangeable.
 */
std::string hostFingerprint();

/**
 * Structural signature of @p net at @p input: an FNV-1a hash over
 * layer names, cost facts (MACs, parameters, weight bytes, sparse
 * traversal), and the propagated shape chain. Any change that alters
 * what the tuner measured — different model, width, compression,
 * weight format, input shape — changes the signature.
 */
std::string networkSignature(const Network &net, const Shape &input);

/** Canonical JSON rendering (see file comment for the guarantees). */
std::string planToJson(const DeploymentPlan &plan);

/** Parse canonical plan JSON. @throws PlanError on any defect. */
DeploymentPlan planFromJson(const std::string &json);

/** Read + parse a plan file. @throws PlanError (missing, corrupt). */
DeploymentPlan loadPlanFile(const std::string &path);

/** Render + write a plan file. @throws PlanError on I/O failure. */
void savePlanFile(const DeploymentPlan &plan, const std::string &path);

/**
 * The cache location of a plan: `<dir>/<model>-<hash>.plan.json`
 * where the hash covers host fingerprint + network signature, so
 * retuning on another host (or ISA pin) never overwrites this one.
 */
std::string planCacheFile(const std::string &dir,
                          const std::string &model,
                          const std::string &hostFp,
                          const std::string &signature);

/**
 * Validate @p plan against @p net (at @p input) and @p hostFp.
 * Returns diagnostics — version mismatch (PlanVersion), foreign host
 * (PlanHostMismatch), different network (PlanNetworkMismatch), layer
 * names the network lacks (PlanUnknownLayer), illegal per-layer
 * points (the verifier capability codes), every Error the verifier
 * finds in @p net at the plan's default backend and threads (a
 * non-finite weight: the signature never hashes values), and
 * BadConfig for bad thread counts and a peak_bytes_bound that is not
 * planPeakBytes. Error severity means the plan must not execute.
 */
std::vector<analysis::Diagnostic>
validatePlan(const DeploymentPlan &plan, const Network &net,
             const Shape &input, const std::string &hostFp);

/** As above against this host's live fingerprint. */
std::vector<analysis::Diagnostic>
validatePlan(const DeploymentPlan &plan, const Network &net,
             const Shape &input);

/**
 * Executable form of a validated plan: the per-layer override table
 * plus the base config. bind() points an ExecContext at it.
 *
 * Immutable after construction, so one runtime may be bound by any
 * number of threads at once (the serving engine shares one across
 * its workers). The runtime must outlive every forward made through
 * a context it is bound to.
 */
class PlanRuntime
{
  public:
    explicit PlanRuntime(const DeploymentPlan &plan);

    /**
     * Point @p ctx at this plan: base backend/threads and the
     * per-layer override table. Fields the plan does not speak to
     * (tracer, metrics, arena) are left as the caller set them.
     */
    void bind(ExecContext &ctx) const;

    /** The override table (for tests and reporting). */
    const std::unordered_map<std::string, LayerExecOverride> &
    overrides() const
    {
        return overrides_;
    }

  private:
    Backend defaultBackend_;
    int defaultThreads_;
    std::unordered_map<std::string, LayerExecOverride> overrides_;
};

} // namespace dlis::tune

#endif // DLIS_TUNE_PLAN_HPP

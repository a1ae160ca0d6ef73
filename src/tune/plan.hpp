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

#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "backend/gemmlib/tuned_gemm.hpp"
#include "backend/oclsim/ndrange.hpp"
#include "nn/network.hpp"

namespace dlis::tune {

/**
 * Schema version written to (and required of) every plan file.
 * v5 dropped the per-layer cost-model seed; v4 replaced the static
 * error bounds with measured deviations (top-level and per-layer
 * max_abs_dev); v3 added the memory-planning fields (mem_budget,
 * peak_bytes_bound); v2 added error_budget. Older plans parse but
 * fail validatePlan with PlanVersion — re-run --tune.
 */
constexpr int kPlanVersion = 5;

/** @name Plan-file tokens (the CLI spellings, not display names). */
/** @{ */
const char *backendToken(Backend b);
bool backendFromToken(const std::string &token, Backend &out);
const char *algoToken(ConvAlgo algo);
bool algoFromToken(const std::string &token, ConvAlgo &out);
/** @} */

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
     * pooling) run under. Restricted to the CPU backends: the base
     * config only decides whether those layers join the parallel
     * loop.
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
     * analysis::memoryEstimateForPlan — an upper bound on the
     * MemoryTracker-observed peak of executing this plan. The serving
     * pre-flight sizes replicas from it; 0 only in hand-made plans.
     */
    size_t peakBytesBound = 0;

    std::vector<LayerPlan> layers;
};

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
 * points and bad thread counts (the verifier capability codes /
 * BadConfig). Error severity means the plan must not execute.
 */
std::vector<analysis::Diagnostic>
validatePlan(const DeploymentPlan &plan, const Network &net,
             const Shape &input, const std::string &hostFp);

/** As above against this host's live fingerprint. */
std::vector<analysis::Diagnostic>
validatePlan(const DeploymentPlan &plan, const Network &net,
             const Shape &input);

/**
 * Executable form of a validated plan: owns the per-layer override
 * table plus whatever backend state the overridden layers need (a
 * GEMM library instance, a simulated command queue). bind() points
 * an ExecContext at all of it.
 *
 * Not thread-safe: one PlanRuntime per executing thread (the serving
 * engine builds one per worker). The runtime must outlive every
 * forward made through a context it is bound to.
 */
class PlanRuntime
{
  public:
    explicit PlanRuntime(const DeploymentPlan &plan);

    /**
     * Point @p ctx at this plan: base backend/threads, the per-layer
     * override table, and the owned gemmLib/queue if any override
     * needs them. Fields the plan does not speak to (tracer, metrics,
     * arena) are left as the caller set them.
     */
    void bind(ExecContext &ctx);

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
    std::unique_ptr<gemmlib::GemmLibrary> gemmLib_;
    std::unique_ptr<oclsim::CommandQueue> queue_;
};

} // namespace dlis::tune

#endif // DLIS_TUNE_PLAN_HPP

/**
 * @file
 * Execution context: which backend, format, algorithm, and thread count
 * a forward pass runs with — one point in the paper's across-stack
 * configuration space (Table II).
 */

#ifndef DLIS_NN_EXEC_CONTEXT_HPP
#define DLIS_NN_EXEC_CONTEXT_HPP

#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>

#include "backend/conv_params.hpp"
#include "core/scratch_arena.hpp"

namespace dlis {

namespace obs {
class Tracer;
class Metrics;
} // namespace obs

/**
 * Systems-layer candidate (paper §IV-D). The two OpenCL backends are
 * estimate-only: hw/cost_model prices them for the Mali GPU, and the
 * host cannot execute them.
 */
enum class Backend
{
    Serial,       //!< single-threaded C reference
    OpenMP,       //!< CPU parallel-for, dynamic schedule
    OclHandTuned, //!< hand-tuned OpenCL dot-product kernels (estimated)
    OclGemmLib,   //!< CLBlast-style im2col + tuned GEMM (estimated)
};

/** Human-readable backend name. */
const char *backendName(Backend b);

/** True for the backends the host executes (Serial, OpenMP). */
bool runsOnHost(Backend b);

/** Data-format layer candidate (paper §IV-C). */
enum class WeightFormat
{
    Dense,         //!< plain dense tensors
    Csr,           //!< compressed sparse row (the paper's deployment)
    PackedTernary, //!< 2-bit ternary codes (§V-D's declined option)
};

/** Human-readable format name. */
const char *weightFormatName(WeightFormat f);

/** Convolution algorithm (paper §II-B layer 3). */
enum class ConvAlgo
{
    Direct,     //!< direct convolution (the paper's baseline path)
    Im2colGemm, //!< im2col + GEMM
};

/** Human-readable algorithm name. */
const char *convAlgoName(ConvAlgo algo);

/** @name CLI and plan-file tokens (the spellings `--backend`, `--algo`
 *  and DeploymentPlan files use, not display names). */
/** @{ */
const char *backendToken(Backend b);
bool backendFromToken(const std::string &token, Backend &out);
const char *algoToken(ConvAlgo algo);
bool algoFromToken(const std::string &token, ConvAlgo &out);
/** @} */

/**
 * One layer's {backend, algorithm, threads} override from a tuned
 * DeploymentPlan (src/tune). Network::forward applies it for the
 * named layer only; every other field of the surrounding ExecContext
 * (arena, tracer, metrics) is shared unchanged.
 */
struct LayerExecOverride
{
    Backend backend = Backend::Serial;
    ConvAlgo convAlgo = ConvAlgo::Direct;
    int threads = 1;
};

/** Execution state threaded through every layer's forward/backward. */
struct ExecContext
{
    Backend backend = Backend::Serial;
    int threads = 1;
    ConvAlgo convAlgo = ConvAlgo::Direct;
    bool training = false; //!< cache activations for backward

    /**
     * Span tracer (not owned). Null disables tracing entirely; the
     * instrumented paths then pay one branch per span.
     */
    obs::Tracer *tracer = nullptr;

    /**
     * Counter registry (not owned). Null disables counting; layers
     * otherwise attribute kernel counters under their own name.
     */
    obs::Metrics *metrics = nullptr;

    /**
     * Scratch arena the conv/GEMM kernels draw workspaces from. Owned
     * by the context and reused across forwards, so the steady state
     * (second and later forwards through the same context) performs
     * zero heap allocations in kernel bodies. Copied contexts share
     * the arena — fine for the sequential copies the tests make, but
     * concurrent workers must each build their own ExecContext (the
     * serving engine does: one context, hence one arena, per worker).
     */
    std::shared_ptr<ScratchArena> arena =
        std::make_shared<ScratchArena>();

    /**
     * Serving request id the current forward is attributed to (0 =
     * none). The serving engine sets this per batch so the per-layer
     * spans Network::forward records join the request's trace; it
     * rides into kernels via KernelPolicy::traceFlowId.
     */
    uint64_t traceFlowId = 0;

    /**
     * Per-layer overrides from a tuned DeploymentPlan, keyed by
     * top-level layer name (not owned; null = every layer runs the
     * global config above). Network::forward consults this table and
     * runs a matching layer under a context copy with the override's
     * backend/algorithm/threads — the copy shares this context's
     * arena, so the override path allocates nothing extra.
     */
    const std::unordered_map<std::string, LayerExecOverride>
        *layerOverrides = nullptr;

    /** Threading policy handed to CPU kernels. */
    KernelPolicy
    policy() const
    {
        KernelPolicy pol{backend == Backend::OpenMP ? threads : 1};
        pol.arena = arena.get();
        pol.traceFlowId = traceFlowId;
        return pol;
    }
};

/**
 * Per-layer cost facts collected for the hardware model and the
 * expected-vs-actual analysis (Fig 1).
 */
struct LayerCost
{
    std::string name;
    size_t denseMacs = 0;   //!< MACs if the layer ran dense
    size_t macs = 0;        //!< MACs actually executed (nnz-based if CSR)
    size_t weightBytes = 0; //!< bytes of weights read (incl. CSR meta)
    size_t inputBytes = 0;  //!< activation bytes read
    size_t outputBytes = 0; //!< activation bytes written
    size_t params = 0;      //!< parameter count (dense equivalent)
    bool sparseTraversal = false; //!< kernel walks CSR indices
    /**
     * CSR row-walks the kernel performs (per output pixel, per slice,
     * per kernel row). Each visit costs bookkeeping even when the row
     * is empty — the term that keeps sparse inference near dense speed
     * regardless of sparsity (Fig 1) and ruins 1x1-filter models.
     */
    size_t sparseRowVisits = 0;
    bool packedTernary = false; //!< kernel decodes 2-bit weight codes
    bool parallel = true;   //!< layer runs under the parallel loop

    /** @name GEMM geometry of the im2col path (0 when not a conv/fc). */
    /** @{ */
    size_t gemmM = 0; //!< output channels
    size_t gemmK = 0; //!< reduction length (cin * kh * kw)
    size_t gemmN = 0; //!< spatial size (hout * wout)
    size_t images = 1; //!< batch size (one GEMM per image)
    /** @} */
};

} // namespace dlis

#endif // DLIS_NN_EXEC_CONTEXT_HPP

/**
 * @file
 * Concurrent batched-inference engine.
 *
 * The paper characterises one image through one stack configuration;
 * this module is the step towards the ROADMAP's serving scenario:
 * many clients submit single-image requests concurrently, and a pool
 * of worker threads coalesces them into batched NCHW forwards through
 * a shared InferenceStack.
 *
 * Request lifecycle:
 *   submit() -> bounded queue -> worker pops a first request, lingers
 *   up to maxDelayUs for up to maxBatch-1 more, concatenates them
 *   into one [k, C, H, W] forward, then fulfils each request's future
 *   with its output row.
 *
 * Contracts the tests pin down:
 *  - batching is semantically invisible: each future's value is
 *    bit-identical to a batch-1 forward of the same input
 *    (tests/test_batch_semantics.cpp proves the per-image
 *    independence of every kernel this engine batches over);
 *  - backpressure is an error, not a hang: a full queue fails the
 *    future immediately with RejectedError;
 *  - shutdown() drains: every admitted request is still executed, and
 *    submissions after shutdown are rejected.
 *
 * Inference-mode forwards mutate no layer state, so one model
 * instance is shared by all workers; each worker owns its ExecContext
 * — and with it one ScratchArena, which warms to the model's
 * high-water scratch demand on the worker's first batch and makes
 * every later batch allocation-free in the conv/GEMM kernels — while
 * the tracer and the telemetry registry are the thread-safe obs types.
 */

#ifndef DLIS_SERVE_ENGINE_HPP
#define DLIS_SERVE_ENGINE_HPP

#include <array>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/tensor.hpp"
#include "nn/exec_context.hpp"
#include "obs/metrics.hpp"
#include "obs/registry.hpp"
#include "obs/stats.hpp"
#include "serve/request_queue.hpp"
#include "tune/plan.hpp"

namespace dlis {

class InferenceStack;

namespace serve {

/** Why a request (or a whole deployment) was refused admission. */
enum class RejectReason
{
    QueueFull, //!< backpressure: the bounded queue is at capacity
    ShutDown,  //!< the engine no longer accepts work
    BadShape,  //!< input is not a [1, C, H, W] the stack accepts
    BadConfig, //!< pre-flight verification rejected the deployment
};

/** Human-readable reject reason. */
const char *rejectReasonName(RejectReason reason);

/** Failure delivered through a rejected request's future, or thrown
 *  by the engine constructor when pre-flight verification fails. */
class RejectedError : public std::runtime_error
{
  public:
    explicit RejectedError(RejectReason reason,
                           const std::string &detail = "");

    RejectReason reason() const { return reason_; }

  private:
    RejectReason reason_;
};

/** Engine shape: pool size, batching window, queue bound, backend. */
struct ServeConfig
{
    size_t workers = 2;        //!< worker (batcher) threads
    size_t maxBatch = 8;       //!< largest coalesced batch
    /**
     * Batching linger after the 1st request, microseconds. Zero means
     * "never wait": a worker ships whatever is already queued, so a
     * pre-filled queue still forms full batches but an empty one
     * never delays a lone request.
     */
    uint64_t maxDelayUs = 2000;
    size_t queueCapacity = 64; //!< admission bound (backpressure)

    Backend backend = Backend::Serial; //!< per-worker compute backend
    int threads = 1;                   //!< team width per worker
    ConvAlgo convAlgo = ConvAlgo::Direct;

    /**
     * Tuned per-layer DeploymentPlan file to execute (""/unset = run
     * the global backend/threads/convAlgo above). Loaded and
     * validated in the constructor's pre-flight: a plan that cannot
     * be parsed, was tuned on another host or for another network, or
     * contains an illegal per-layer point throws
     * RejectedError(BadConfig) before any worker spawns — a rejected
     * plan is never partially applied.
     */
    std::string planFile;

    /**
     * In-memory plan alternative to planFile (not owned; must outlive
     * the engine). planFile takes precedence when both are set. Same
     * pre-flight validation.
     */
    const tune::DeploymentPlan *plan = nullptr;

    /**
     * End-to-end absolute-deviation budget this deployment is
     * expected to meet (0 = none). Compared at pre-flight against the
     * plan's measured max_abs_dev (max |plan - serial/direct| on the
     * tuner's seeded input): a plan over budget raises an
     * ErrorBudgetExceeded WARNING in preflightWarnings() — the engine
     * still starts — so operators can alert on it before traffic
     * does.
     */
    double errorBudget = 0.0;

    /**
     * Peak-RAM budget of the node this engine deploys onto, in bytes
     * (0 = unlimited). Pre-flight sizes the worker pool against it:
     * each worker is one replica of the model's peak footprint at a
     * batch of maxBatch — the plan's peak bound (planPeakBytes) when a
     * plan is set, otherwise the static estimate of the configured
     * global backend/algorithm (a conservative per-replica figure
     * since weights are actually shared). Workers that do not fit
     * are shed with a `node-mem-exceeded` warning in
     * preflightWarnings(); if even one replica does not fit, the
     * deployment is refused with RejectedError(BadConfig) carrying
     * the same stable code.
     */
    size_t nodeMemBudget = 0;

    /**
     * Start with the worker pool idle; requests queue (and overflow
     * rejects) until resume(). Used by tests to force deterministic
     * backpressure and shutdown-with-queued-work scenarios.
     */
    bool startPaused = false;

    /** @name Rolling-window geometry of the live telemetry.
     * Defaults give "over the last 10 seconds" readings; tests shrink
     * the buckets so windows expire quickly and deterministically. */
    /** @{ */
    size_t windowBuckets = 10;
    double windowBucketSeconds = 1.0;
    /** @} */
};

/** Point-in-time engine statistics. */
struct EngineStats
{
    uint64_t submitted = 0; //!< admitted requests
    uint64_t completed = 0; //!< futures fulfilled with a result
    uint64_t rejected = 0;  //!< refused at admission
    uint64_t batches = 0;   //!< forwards executed
    size_t queuePeak = 0;   //!< high-water queue depth
    /**
     * Realised batch sizes, index = size (0 unused), read from the
     * dlis_serve_batch_size histogram (bounds 1..maxBatch, so exact).
     */
    std::vector<uint64_t> batchHistogram;
    /**
     * Enqueue-to-reply latency over completed requests (seconds),
     * read from the cumulative dlis_serve_latency_seconds histogram
     * (obs::Histogram::stats). count and mean are exact; min, max and
     * the percentiles are at bucket resolution — the values a
     * Prometheus histogram_quantile over /metrics returns.
     */
    obs::LatencyStats latency;
    size_t queueDepth = 0; //!< current queue depth (approximate)
    /** Enqueue-to-reply latency over the trailing rolling window. */
    obs::WindowStats latencyWindow;
    /** rejected / (admitted + rejected) over the rolling window. */
    double shedRatioWindow = 0.0;
};

/**
 * Thread-pool inference engine over one InferenceStack.
 *
 * The stack must outlive the engine. All public methods are
 * thread-safe; submit() may be called from any number of client
 * threads.
 */
class InferenceEngine
{
  public:
    /**
     * @param stack   built stack whose model serves the requests
     * @param config  pool/batching/backpressure parameters
     * @param metrics optional per-layer kernel-counter registry handed
     *                to every worker's ExecContext (not owned; must
     *                outlive the engine). Serving facts are not
     *                mirrored here; they live in telemetry().
     * @param tracer  optional span tracer observing worker forwards
     * @param registry optional serving-telemetry registry (not
     *                owned; it must then outlive the engine). Null
     *                makes the engine own a private registry —
     *                telemetry is always on; telemetry() exposes it
     *                for scraping either way.
     *
     * The constructor pre-flights the deployment: the model is run
     * through the static verifier (analysis::verifyNetwork) against
     * the configured backend/algorithm/threads, and a deployment that
     * would fail mid-request — an OpenMP team of zero threads, a
     * corrupt CSR image, a broken residual block — throws
     * RejectedError(RejectReason::BadConfig) with the first diagnostic
     * as detail, before any worker thread spawns.
     */
    InferenceEngine(InferenceStack &stack, ServeConfig config,
                    obs::Metrics *metrics = nullptr,
                    obs::Tracer *tracer = nullptr,
                    obs::MetricsRegistry *registry = nullptr);

    /** Graceful shutdown (drains admitted work). */
    ~InferenceEngine();

    InferenceEngine(const InferenceEngine &) = delete;
    InferenceEngine &operator=(const InferenceEngine &) = delete;

    /**
     * Submit one [1, C, H, W] request. The returned future yields the
     * [1, classes] output row, or throws RejectedError if the request
     * was refused (full queue, shutdown, wrong shape). Never blocks
     * beyond the queue mutex.
     */
    std::future<Tensor> submit(Tensor input);

    /** Start the worker pool (no-op unless startPaused). */
    void resume();

    /**
     * Stop accepting work, execute everything already admitted, join
     * the pool. Idempotent; called by the destructor. A paused engine
     * is resumed first so queued work still drains.
     */
    void shutdown();

    /** Statistics snapshot (callable at any time, any thread). */
    EngineStats stats() const;

    /**
     * The serving-telemetry registry (owned unless one was injected):
     * every dlis_serve_* family lives here; hand it to a
     * TelemetryServer to scrape, or an SloWatchdog to evaluate.
     */
    obs::MetricsRegistry &telemetry() { return *registry_; }
    const obs::MetricsRegistry &telemetry() const { return *registry_; }

    /** The engine's configuration. */
    const ServeConfig &config() const { return config_; }

    /**
     * Workers the pool actually runs: config().workers unless the
     * nodeMemBudget pre-flight shed replicas that did not fit.
     */
    size_t activeWorkers() const { return activeWorkers_; }

    /**
     * Non-fatal pre-flight findings (Warning/Info severity) — today
     * the ErrorBudgetExceeded comparison of the plan's measured
     * deviation against config().errorBudget. Error-severity
     * findings never land here; they throw from the constructor.
     */
    const std::vector<analysis::Diagnostic> &preflightWarnings() const
    {
        return preflightWarnings_;
    }

    /** The [1, C, H, W] shape every request must have. */
    const Shape &requestShape() const { return requestShape_; }

  private:
    struct Request
    {
        uint64_t id = 0; //!< RequestId minted at submit (trace flow)
        Tensor input;
        std::promise<Tensor> promise;
        std::chrono::steady_clock::time_point enqueued;
        uint64_t traceEnqueueNs = 0; //!< tracer clock at submit
        uint64_t tracePopNs = 0;     //!< tracer clock when popped
    };

    void registerInstruments();
    void workerLoop(size_t workerId);
    void runBatch(std::vector<Request> &batch, ExecContext &ctx,
                  size_t workerId);

    InferenceStack &stack_;
    const ServeConfig config_;
    /** Pool size after the nodeMemBudget right-sizing pre-flight. */
    size_t activeWorkers_ = 0;
    /**
     * Runtime of the validated deployment plan the pool executes
     * (null = global config). Immutable, so every worker binds the
     * same one.
     */
    std::unique_ptr<const tune::PlanRuntime> planRuntime_;
    std::vector<analysis::Diagnostic> preflightWarnings_;
    obs::Metrics *metrics_;
    obs::Tracer *tracer_;
    std::unique_ptr<obs::MetricsRegistry> ownedRegistry_;
    obs::MetricsRegistry *registry_; //!< never null

    Shape requestShape_; //!< required [1, C, H, W] input shape

    BoundedQueue<Request> queue_;
    std::vector<std::thread> pool_;
    std::mutex lifecycleMutex_; //!< guards pool_ start/join
    bool started_ = false;
    bool shutdown_ = false;
    /** Admission flag read outside the queue mutex — engine lifecycle
     *  state, not a metric. dlis-lint: allow(serve-atomic) */
    std::atomic<bool> accepting_{true}; // dlis-lint: allow(serve-atomic)
    /** RequestId mint (trace identity, not a counter metric).
     *  dlis-lint: allow(serve-atomic) */
    std::atomic<uint64_t> nextRequestId_{1}; // dlis-lint: allow(serve-atomic)

    /** @name Registry instrument handles (resolved once in the ctor;
     * the request hot path publishes through them lock-free). */
    /** @{ */
    obs::ShardedCounter *submittedCtr_ = nullptr;
    obs::ShardedCounter *completedCtr_ = nullptr;
    obs::ShardedCounter *batchesCtr_ = nullptr;
    /** Indexed by RejectReason (QueueFull, ShutDown, BadShape). */
    std::array<obs::ShardedCounter *, 3> rejectedCtr_{};
    obs::Gauge *queueDepthGauge_ = nullptr;
    obs::Gauge *queuePeakGauge_ = nullptr;
    obs::Histogram *latencyHist_ = nullptr;
    obs::Histogram *batchSizeHist_ = nullptr;
    obs::RollingHistogram *latencyWindow_ = nullptr;
    obs::RollingCounter *admittedWindow_ = nullptr;
    obs::RollingCounter *rejectedWindow_ = nullptr;
    /** @} */
};

} // namespace serve
} // namespace dlis

#endif // DLIS_SERVE_ENGINE_HPP

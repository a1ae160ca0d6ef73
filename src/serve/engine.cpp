#include "serve/engine.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>

#include "analysis/memory_estimate.hpp"
#include "analysis/verifier.hpp"
#include "backend/simd/isa.hpp"
#include "obs/trace.hpp"
#include "stack/inference_stack.hpp"

namespace dlis::serve {

namespace {

/** rejected / (admitted + rejected) over the window ending at @p now. */
double
shedRatio(const obs::RollingCounter &admitted,
          const obs::RollingCounter &rejected, uint64_t now)
{
    const double adm = static_cast<double>(admitted.sum(now));
    const double rej = static_cast<double>(rejected.sum(now));
    return adm + rej > 0.0 ? rej / (adm + rej) : 0.0;
}

} // namespace

const char *
rejectReasonName(RejectReason reason)
{
    switch (reason) {
      case RejectReason::QueueFull: return "queue-full";
      case RejectReason::ShutDown:  return "shut-down";
      case RejectReason::BadShape:  return "bad-shape";
      case RejectReason::BadConfig: return "bad-config";
    }
    return "?";
}

RejectedError::RejectedError(RejectReason reason,
                             const std::string &detail)
    : std::runtime_error(std::string("request rejected: ") +
                         rejectReasonName(reason) +
                         (detail.empty() ? "" : " — " + detail)),
      reason_(reason)
{
}

InferenceEngine::InferenceEngine(InferenceStack &stack,
                                 ServeConfig config,
                                 obs::Metrics *metrics,
                                 obs::Tracer *tracer,
                                 obs::MetricsRegistry *registry)
    : stack_(stack), config_(config), metrics_(metrics),
      tracer_(tracer),
      ownedRegistry_(registry
                         ? nullptr
                         : std::make_unique<obs::MetricsRegistry>()),
      registry_(registry ? registry : ownedRegistry_.get()),
      requestShape_(stack.inputShape(1)),
      queue_(config.queueCapacity)
{
    DLIS_CHECK(config_.workers > 0, "engine needs at least one worker");
    DLIS_CHECK(config_.maxBatch > 0, "maxBatch must be positive");
    DLIS_CHECK(config_.queueCapacity > 0,
               "queueCapacity must be positive");
    DLIS_CHECK(config_.windowBuckets > 0 &&
                   config_.windowBucketSeconds > 0.0,
               "rolling window needs >= 1 bucket of > 0 seconds");

    registerInstruments();

    // Pre-flight: statically verify the model against this engine's
    // backend/algorithm before any worker spawns. A bad deployment is
    // rejected here, with a diagnostic, instead of panicking a worker
    // thread mid-request.
    analysis::VerifyOptions vopts;
    vopts.input = stack.inputShape(1);
    vopts.backend = config_.backend;
    vopts.convAlgo = config_.convAlgo;
    vopts.threads = config_.threads;
    vopts.estimateMemory = false;
    const analysis::VerifyReport preflight =
        analysis::verifyNetwork(stack.model().net, vopts);
    if (!preflight.ok())
        throw RejectedError(RejectReason::BadConfig,
                            preflight.firstError());
    if (!runsOnHost(config_.backend))
        throw RejectedError(
            RejectReason::BadConfig,
            std::string("[") +
                analysis::checkName(analysis::Check::BadConfig) +
                "] backend '" + backendName(config_.backend) +
                "' is estimate-only (hw/cost_model); the engine serves "
                "on serial or openmp");

    // Plan pre-flight: a tuned per-layer plan must parse and must
    // apply to THIS host and THIS network before any worker executes
    // through it. Any defect — unreadable/corrupt JSON, stale schema
    // version, foreign host fingerprint, different network, illegal
    // per-layer point, a peak_bytes_bound this build does not reproduce
    // — rejects the whole deployment here; a bad plan is never
    // partially applied.
    std::optional<tune::DeploymentPlan> plan;
    if (!config_.planFile.empty() || config_.plan) {
        try {
            plan = config_.planFile.empty()
                       ? *config_.plan
                       : tune::loadPlanFile(config_.planFile);
            const auto diags = tune::validatePlan(
                *plan, stack.model().net, stack.inputShape(1));
            for (const analysis::Diagnostic &d : diags)
                if (d.severity == analysis::Severity::Error)
                    throw RejectedError(RejectReason::BadConfig,
                                        d.str());
        } catch (const tune::PlanError &e) {
            throw RejectedError(RejectReason::BadConfig, e.what());
        }
        planRuntime_ = std::make_unique<const tune::PlanRuntime>(*plan);
    }

    // Memory pre-flight: right-size the worker pool against the
    // node's RAM budget. Each worker is one replica of the model's
    // peak footprint at a full batch of maxBatch requests — the plan's
    // peak bound at that batch when a plan drives the pool, otherwise
    // the static estimate of the configured global point. Shedding
    // replicas is a warning (the engine still serves, just narrower);
    // zero fitting replicas is a refusal — the first batch would take
    // the node down.
    activeWorkers_ = config_.workers;
    if (config_.nodeMemBudget > 0) {
        const Shape fullBatch = stack.inputShape(config_.maxBatch);
        const size_t perReplica =
            plan ? tune::planPeakBytes(*plan, stack.model().net, fullBatch)
                 : analysis::estimateForwardMemory(
                       stack.model().net, fullBatch, config_.backend,
                       config_.convAlgo, config_.threads)
                       .total();
        if (perReplica > config_.nodeMemBudget)
            throw RejectedError(
                RejectReason::BadConfig,
                std::string("[") +
                    analysis::checkName(
                        analysis::Check::NodeMemExceeded) +
                    "] one replica needs " +
                    std::to_string(perReplica) +
                    " bytes but the node budget is " +
                    std::to_string(config_.nodeMemBudget) + " bytes");
        const size_t fit = config_.nodeMemBudget / perReplica;
        if (fit < activeWorkers_) {
            analysis::diag(
                preflightWarnings_, analysis::Severity::Warning,
                analysis::Check::NodeMemExceeded, "",
                std::to_string(config_.workers) + " workers x " +
                    std::to_string(perReplica) +
                    " peak bytes exceed the node budget " +
                    std::to_string(config_.nodeMemBudget) +
                    "; shedding to " + std::to_string(fit) +
                    " workers");
            activeWorkers_ = fit;
        }
    }

    // Numerical pre-flight: compare the plan's measured end-to-end
    // deviation against this deployment's budget. Over budget is a
    // WARNING, not a rejection — the deviation was measured on one
    // seeded input, not proven for every input — surfaced through
    // preflightWarnings() so the operator hears about it before
    // traffic does.
    if (config_.errorBudget > 0.0 && plan &&
        plan->maxAbsDev > config_.errorBudget) {
        char msg[160];
        std::snprintf(msg, sizeof(msg),
                      "plan's measured e2e max |dev| %.6g exceeds "
                      "the serving budget %.6g — retune with "
                      "--error-budget or relax the budget",
                      plan->maxAbsDev, config_.errorBudget);
        analysis::diag(preflightWarnings_,
                       analysis::Severity::Warning,
                       analysis::Check::ErrorBudgetExceeded, "", msg);
    }

    if (!config_.startPaused)
        resume();
}

void
InferenceEngine::registerInstruments()
{
    obs::MetricsRegistry &reg = *registry_;
    const obs::RollingConfig window{config_.windowBuckets,
                                    config_.windowBucketSeconds};

    submittedCtr_ =
        &reg.counter("dlis_serve_requests_submitted_total",
                     "Requests admitted to the serving queue");
    completedCtr_ =
        &reg.counter("dlis_serve_requests_completed_total",
                     "Requests whose future was fulfilled with a result");
    batchesCtr_ = &reg.counter("dlis_serve_batches_total",
                               "Coalesced batch forwards executed");
    const RejectReason reasons[] = {RejectReason::QueueFull,
                                    RejectReason::ShutDown,
                                    RejectReason::BadShape};
    for (RejectReason r : reasons)
        rejectedCtr_[static_cast<size_t>(r)] = &reg.counter(
            "dlis_serve_requests_rejected_total",
            "Requests refused at admission, by reason",
            {{"reason", rejectReasonName(r)}});

    queueDepthGauge_ = &reg.gauge("dlis_serve_queue_depth",
                                  "Requests currently queued");
    queuePeakGauge_ = &reg.gauge("dlis_serve_queue_peak",
                                 "High-water queue depth");

    // Which micro-kernel ISA the dispatcher resolved (scalar on hosts
    // without AVX2, or when pinned via DLIS_FORCE_ISA): a
    // constant-1 labelled gauge, so dashboards can split latency
    // series by ISA after a fleet rollout.
    reg.gauge("dlis_simd_isa",
              "SIMD instruction set the kernel dispatcher selected",
              {{"isa", simd::isaName(simd::activeIsa())}})
        .set(1);

    batchSizeHist_ = &reg.histogram(
        "dlis_serve_batch_size", "Realised batch sizes",
        [this] {
            std::vector<double> bounds;
            bounds.reserve(config_.maxBatch);
            for (size_t b = 1; b <= config_.maxBatch; ++b)
                bounds.push_back(static_cast<double>(b));
            return bounds;
        }());
    latencyHist_ = &reg.histogram(
        "dlis_serve_latency_seconds",
        "Enqueue-to-reply latency, completed requests (cumulative)",
        obs::defaultLatencyBounds());
    latencyWindow_ = &reg.rollingHistogram(
        "dlis_serve_latency_window_seconds",
        "Enqueue-to-reply latency over the trailing window",
        obs::defaultLatencyBounds(), window);
    admittedWindow_ =
        &reg.rollingCounter("dlis_serve_admitted_window",
                            "Requests admitted in the trailing window",
                            window);
    rejectedWindow_ =
        &reg.rollingCounter("dlis_serve_rejected_window",
                            "Requests rejected in the trailing window",
                            window);

    // Shed ratio is derived at scrape time from the two rolling
    // counters. The lambda captures registry-owned instruments (and
    // the registry itself for the clock), never the engine, so an
    // injected registry stays scrapable after the engine is gone.
    obs::MetricsRegistry *regPtr = registry_;
    obs::RollingCounter *admitted = admittedWindow_;
    obs::RollingCounter *rejected = rejectedWindow_;
    reg.derivedGauge(
        "dlis_serve_shed_ratio",
        "rejected / (admitted + rejected) over the trailing window",
        {}, [regPtr, admitted, rejected] {
            return shedRatio(*admitted, *rejected, regPtr->nowNs());
        });
}

InferenceEngine::~InferenceEngine()
{
    shutdown();
}

std::future<Tensor>
InferenceEngine::submit(Tensor input)
{
    Request req;
    req.id = nextRequestId_.fetch_add(1, std::memory_order_relaxed);
    req.input = std::move(input);
    req.enqueued = std::chrono::steady_clock::now();
    if (tracer_)
        req.traceEnqueueNs = tracer_->nowNs();
    std::future<Tensor> future = req.promise.get_future();

    RejectReason reason{};
    bool rejected = false;
    if (req.input.shape() != requestShape_) {
        reason = RejectReason::BadShape;
        rejected = true;
    } else if (!accepting_.load(std::memory_order_acquire)) {
        reason = RejectReason::ShutDown;
        rejected = true;
    } else if (!queue_.tryPush(std::move(req))) {
        // tryPush left req intact; distinguish full from racing close.
        reason = accepting_.load(std::memory_order_acquire)
                     ? RejectReason::QueueFull
                     : RejectReason::ShutDown;
        rejected = true;
    }

    if (rejected) {
        rejectedCtr_[static_cast<size_t>(reason)]->add(1);
        rejectedWindow_->add(1, registry_->nowNs());
        req.promise.set_exception(
            std::make_exception_ptr(RejectedError(reason)));
        return future;
    }

    submittedCtr_->add(1);
    admittedWindow_->add(1, registry_->nowNs());
    const size_t depth = queue_.approxSize();
    queueDepthGauge_->set(static_cast<double>(depth));
    queuePeakGauge_->maxOf(static_cast<double>(depth));
    return future;
}

void
InferenceEngine::resume()
{
    std::lock_guard<std::mutex> lock(lifecycleMutex_);
    if (started_ || shutdown_)
        return;
    started_ = true;
    pool_.reserve(activeWorkers_);
    for (size_t i = 0; i < activeWorkers_; ++i)
        pool_.emplace_back([this, i] { workerLoop(i); });
}

void
InferenceEngine::shutdown()
{
    accepting_.store(false, std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(lifecycleMutex_);
        if (shutdown_)
            return;
        shutdown_ = true;
        // A paused engine still owes results for everything it
        // admitted: bring the pool up so the queue drains.
        if (!started_) {
            started_ = true;
            pool_.reserve(activeWorkers_);
            for (size_t i = 0; i < activeWorkers_; ++i)
                pool_.emplace_back([this, i] { workerLoop(i); });
        }
    }
    queue_.close();
    for (auto &t : pool_)
        if (t.joinable())
            t.join();
}

EngineStats
InferenceEngine::stats() const
{
    EngineStats s;
    s.submitted = submittedCtr_->value();
    s.completed = completedCtr_->value();
    for (const obs::ShardedCounter *ctr : rejectedCtr_)
        s.rejected += ctr->value();
    s.batches = batchesCtr_->value();
    s.queuePeak = static_cast<size_t>(queuePeakGauge_->value());
    s.queueDepth = queue_.approxSize();
    s.latency = latencyHist_->stats();

    // Bucket i of dlis_serve_batch_size counts batches of size i + 1;
    // the +Inf tail (never reached: k <= maxBatch) folds into the top.
    const std::vector<uint64_t> batchCounts =
        batchSizeHist_->bucketCounts();
    s.batchHistogram.assign(config_.maxBatch + 1, 0);
    for (size_t i = 0; i < batchCounts.size(); ++i)
        s.batchHistogram[std::min(i + 1, config_.maxBatch)] +=
            batchCounts[i];

    const uint64_t now = registry_->nowNs();
    s.latencyWindow = latencyWindow_->stats(now);
    s.shedRatioWindow = shedRatio(*admittedWindow_, *rejectedWindow_, now);
    return s;
}

void
InferenceEngine::workerLoop(size_t workerId)
{
    ExecContext ctx;
    ctx.backend = config_.backend;
    ctx.threads = config_.threads;
    ctx.convAlgo = config_.convAlgo;
    ctx.metrics = metrics_;
    ctx.tracer = tracer_;

    // A tuned plan is one immutable override table shared by every
    // worker; each worker's context (and so its arena) stays its own.
    if (planRuntime_)
        planRuntime_->bind(ctx);

    // Registered once per worker at spawn (allocates); the per-batch
    // updates below are plain atomic stores.
    obs::Gauge &arenaGauge = registry_->gauge(
        "dlis_serve_arena_bytes",
        "Scratch-arena capacity per worker context",
        {{"worker", std::to_string(workerId)}});

    for (;;) {
        std::vector<Request> batch;
        {
            auto first = queue_.pop();
            if (!first)
                return; // closed and drained
            batch.push_back(std::move(*first));
        }
        if (tracer_)
            batch.back().tracePopNs = tracer_->nowNs();
        const auto deadline =
            batch.front().enqueued +
            std::chrono::microseconds(config_.maxDelayUs);
        while (batch.size() < config_.maxBatch) {
            std::optional<Request> next;
            if (config_.maxDelayUs == 0 ||
                std::chrono::steady_clock::now() >= deadline) {
                // Linger disabled or exhausted: greedily take what is
                // already queued, but never block the batch on a wait
                // (a zero-linger engine must not park in wait_until at
                // all — the deadline is the first request's enqueue
                // time, typically already in the past).
                next = queue_.tryPop();
            } else {
                next = queue_.popUntil(deadline);
            }
            if (!next)
                break; // linger expired, or closed and drained
            batch.push_back(std::move(*next));
            if (tracer_)
                batch.back().tracePopNs = tracer_->nowNs();
        }
        queueDepthGauge_->set(
            static_cast<double>(queue_.approxSize()));
        runBatch(batch, ctx, workerId);
        arenaGauge.set(
            static_cast<double>(ctx.arena->capacityBytes()));
    }
}

void
InferenceEngine::runBatch(std::vector<Request> &batch, ExecContext &ctx,
                          size_t workerId)
{
    const size_t k = batch.size();
    const size_t perImage = requestShape_.numel();

    // The batch is sealed: close out the per-request queue_wait and
    // batch_assembly spans. Each span carries the request's id, so one
    // request's enqueue -> pop -> seal -> forward -> reply renders as
    // a connected trace in the Chrome export.
    const uint64_t sealNs = tracer_ ? tracer_->nowNs() : 0;
    if (tracer_) {
        for (const Request &req : batch) {
            tracer_->record("queue_wait", "request",
                            req.traceEnqueueNs,
                            req.tracePopNs - req.traceEnqueueNs,
                            req.id);
            tracer_->record("batch_assembly", "request",
                            req.tracePopNs, sealNs - req.tracePopNs,
                            req.id);
        }
    }

    std::vector<size_t> inDims = requestShape_.dims();
    inDims[0] = k;
    Tensor input((Shape(inDims)));
    for (size_t i = 0; i < k; ++i)
        std::memcpy(input.data() + i * perImage,
                    batch[i].input.data(), perImage * sizeof(float));

    // Layer/kernel spans under this forward join the trace of the
    // batch's lead request (one forward serves the whole batch).
    ctx.traceFlowId = batch.front().id;

    try {
        Tensor output;
        const uint64_t forwardStartNs =
            tracer_ ? tracer_->nowNs() : 0;
        {
            obs::TraceSpan span(tracer_,
                                "serve.worker" +
                                    std::to_string(workerId) +
                                    ".batch" + std::to_string(k),
                                "serve", batch.front().id);
            output = stack_.model().net.forward(input, ctx);
        }
        if (tracer_) {
            const uint64_t forwardEndNs = tracer_->nowNs();
            for (const Request &req : batch)
                tracer_->record("forward", "request", forwardStartNs,
                                forwardEndNs - forwardStartNs,
                                req.id);
        }
        DLIS_ASSERT(output.shape().rank() >= 1 &&
                        output.shape()[0] == k,
                    "batched forward returned wrong leading dim");

        std::vector<size_t> rowDims = output.shape().dims();
        rowDims[0] = 1;
        const Shape rowShape(rowDims);
        const size_t rowNumel = output.numel() / k;
        std::vector<Tensor> rows;
        rows.reserve(k);
        for (size_t i = 0; i < k; ++i) {
            rows.emplace_back(rowShape);
            std::memcpy(rows.back().data(),
                        output.data() + i * rowNumel,
                        rowNumel * sizeof(float));
        }

        // Account the batch before fulfilling any promise: a client
        // that observes its future ready must also observe this batch
        // in stats().
        const auto done = std::chrono::steady_clock::now();
        const uint64_t nowNs = registry_->nowNs();
        for (const Request &req : batch) {
            const double seconds =
                std::chrono::duration<double>(done - req.enqueued)
                    .count();
            latencyHist_->record(seconds);
            latencyWindow_->record(seconds, nowNs);
        }
        completedCtr_->add(k);
        batchesCtr_->add(1);
        batchSizeHist_->record(static_cast<double>(k));

        const uint64_t replyStartNs = tracer_ ? tracer_->nowNs() : 0;
        for (size_t i = 0; i < k; ++i)
            batch[i].promise.set_value(std::move(rows[i]));
        if (tracer_) {
            const uint64_t replyEndNs = tracer_->nowNs();
            for (const Request &req : batch)
                tracer_->record("reply", "request", replyStartNs,
                                replyEndNs - replyStartNs, req.id);
        }
    } catch (...) {
        batchesCtr_->add(1);
        batchSizeHist_->record(static_cast<double>(k));
        const auto error = std::current_exception();
        for (auto &req : batch)
            req.promise.set_exception(error);
    }
}

} // namespace dlis::serve

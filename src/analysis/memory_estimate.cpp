#include "analysis/memory_estimate.hpp"

#include <algorithm>

#include "backend/gemm.hpp"
#include "backend/im2col.hpp"
#include "core/scratch_arena.hpp"
#include "nn/models/model.hpp"
#include "nn/pooling.hpp"
#include "nn/residual_block.hpp"

namespace dlis::analysis {

namespace {

size_t
bytesOf(const Shape &s)
{
    return s.numel() * sizeof(float);
}

/**
 * Thread count gemmBlocked's per-thread C tiles are sized for, given
 * the context's backend and thread setting (ExecContext::policy gives
 * non-OpenMP backends a serial kernel policy).
 */
size_t
effectiveThreads(Backend backend, int threads)
{
    return backend == Backend::OpenMP && threads > 1
               ? static_cast<size_t>(threads)
               : size_t{1};
}

/**
 * Arena bytes one gemmBlocked call bump-allocates: per-thread C tiles,
 * carved out as a single block before the parallel region. Mirrors
 * the kernel's carve rule exactly: the team is clamped to the tile
 * count of the [m, n] problem, and a single-tile or single-threaded
 * call accumulates directly into C and carves nothing — unless C is
 * split into image planes (@p planar, a folded im2col group), which
 * needs one private tile even then.
 */
size_t
gemmTileDemand(size_t m, size_t n, size_t threads, bool planar)
{
    using kernels::kGemmTileM, kernels::kGemmTileN;
    const size_t rowTiles = (m + kGemmTileM - 1) / kGemmTileM;
    const size_t colTiles = (n + kGemmTileN - 1) / kGemmTileN;
    const size_t teams = std::min(threads, rowTiles * colTiles);
    if (teams <= 1 && !planar)
        return 0;
    return ScratchArena::alignUp(teams * kGemmTileM * kGemmTileN *
                                 sizeof(float));
}

/** Activation + scratch bytes a Conv2d::forward allocates beyond its
 *  input. Mirrors the dispatch in Conv2d::forward: the output tensor
 *  is always constructed up front, so the im2col path pays for it
 *  *plus* its own result tensor. Scratch is the layer's total
 *  scratch-arena demand — the sum of the aligned block sizes its
 *  kernels bump-allocate within one scope (im2col columns, GEMM C
 *  tiles); the arena's grow-only capacity, and therefore the
 *  tracker's Scratch class, peaks at the largest layer demand. The
 *  estimate-only OpenCL backends are priced like the direct path:
 *  their output, and no host scratch. */
struct Transient
{
    size_t act = 0;
    size_t scratch = 0;
};

Transient
convTransient(const Conv2d &conv, const Shape &in, Backend backend,
              ConvAlgo algo, int threads)
{
    const size_t out = bytesOf(conv.outputShape(in));
    if (!runsOnHost(backend) || conv.format() != WeightFormat::Dense ||
        algo != ConvAlgo::Im2colGemm)
        return {out, 0}; // direct kernels write the outer tensor

    // Conv2d::forwardIm2col's group workspace, the [k, g*hw] column
    // matrix (none for a one-image pointwise group, whose input is
    // already B), then the GEMM's own demand; a multi-image group's
    // GEMM stores through private tiles into the NCHW planes.
    const ConvParams p = conv.paramsFor(in);
    const size_t m = conv.cout();
    const size_t k = conv.cin() * conv.kernel() * conv.kernel();
    const size_t hw = p.hout() * p.wout();
    const size_t g = kernels::im2colGroupImages(p);
    const size_t n = g * hw;
    const bool copyCols = g > 1 || !kernels::im2colIsIdentity(p);
    const size_t cols =
        copyCols ? ScratchArena::alignUp(k * n * sizeof(float)) : 0;
    const size_t tiles =
        gemmTileDemand(m, n, effectiveThreads(backend, threads), g > 1);
    return {2 * out, cols + tiles};
}

/** Transients of a residual block's forward, relative to its input.
 *  The block keeps its layer cursor, the skip tensor (a copy of the
 *  input when there is no projection), and the stage output alive at
 *  once — the in-place add is the high-water point. */
Transient
residualTransient(const ResidualBlock &block, const Shape &in,
                  Backend backend, ConvAlgo algo, int threads)
{
    const Transient t1 =
        convTransient(block.conv1(), in, backend, algo, threads);
    const Shape s1 = block.conv1().outputShape(in);
    const size_t b1 = bytesOf(s1);
    const Transient t2 =
        convTransient(block.conv2(), s1, backend, algo, threads);
    const Shape s2 = block.conv2().outputShape(s1);
    const size_t b2 = bytesOf(s2);

    size_t act = std::max({t1.act, 2 * b1, b1 + t2.act, 2 * b2});
    size_t scratch = std::max(t1.scratch, t2.scratch);
    if (const Conv2d *proj = block.projection()) {
        const Transient tp =
            convTransient(*proj, in, backend, algo, threads);
        const size_t bp = bytesOf(proj->outputShape(in));
        act = std::max({act, b2 + tp.act, b2 + 2 * bp, 2 * b2 + bp});
        scratch = std::max(scratch, tp.scratch);
    } else {
        // skip = input copy, then the relu2 copy of the summed main.
        act = std::max({act, b2 + bytesOf(in), 2 * b2 + bytesOf(in)});
    }
    return {act, scratch};
}

/** Parameter bytes of one layer, split into Weights and SparseMeta
 *  tracker classes exactly as the runtime registers them. */
void
accumulateParams(const Layer &layer, MemoryEstimate &est)
{
    if (const auto *conv = dynamic_cast<const Conv2d *>(&layer)) {
        est.weights += conv->weight().bytes() + conv->bias().bytes();
        if (conv->format() == WeightFormat::Csr) {
            est.weights += conv->csrWeight().nnz() * sizeof(float);
            est.sparseMeta += conv->csrWeight().metadataBytes();
        } else if (conv->format() == WeightFormat::PackedTernary) {
            est.weights += conv->packedWeight().storageBytes();
        }
    } else if (const auto *dw =
                   dynamic_cast<const DepthwiseConv2d *>(&layer)) {
        est.weights += dw->weight().bytes();
        if (dw->hasBias())
            est.weights += dw->channels() * sizeof(float);
    } else if (const auto *bn =
                   dynamic_cast<const BatchNorm2d *>(&layer)) {
        // gamma, beta, runningMean, runningVar.
        est.weights += 4 * bn->channels() * sizeof(float);
    } else if (const auto *fc = dynamic_cast<const Linear *>(&layer)) {
        est.weights +=
            fc->weight().bytes() + fc->outFeatures() * sizeof(float);
        if (fc->format() == WeightFormat::Csr) {
            est.weights += fc->csrWeight().nnz() * sizeof(float);
            est.sparseMeta += fc->csrWeight().metadataBytes();
        }
    } else if (const auto *block =
                   dynamic_cast<const ResidualBlock *>(&layer)) {
        accumulateParams(block->conv1(), est);
        accumulateParams(block->bn1(), est);
        accumulateParams(block->conv2(), est);
        accumulateParams(block->bn2(), est);
        if (block->projection()) {
            accumulateParams(*block->projection(), est);
            accumulateParams(*block->projectionBn(), est);
        }
    }
}

/** Per-layer transient/scratch terms under one configuration — the
 *  shared pricing core of layerForwardMemory and the whole-network
 *  estimators. */
Transient
layerTransient(const Layer &layer, const Shape &in, Backend backend,
               ConvAlgo algo, int threads)
{
    Transient t{bytesOf(layer.outputShape(in)), 0};
    if (const auto *conv = dynamic_cast<const Conv2d *>(&layer))
        t = convTransient(*conv, in, backend, algo, threads);
    else if (const auto *block =
                 dynamic_cast<const ResidualBlock *>(&layer))
        t = residualTransient(*block, in, backend, algo, threads);
    return t;
}

} // namespace

MemoryEstimate
memoryEstimateForPlan(
    const Network &net, const Shape &input,
    const std::unordered_map<std::string, LayerExecOverride> &overrides,
    Backend defaultBackend, ConvAlgo defaultAlgo, int defaultThreads)
{
    MemoryEstimate est;
    const size_t inputBytes = bytesOf(input);

    // The measurement harness holds the input tensor for the whole
    // forward, and Network::forward's layer cursor starts as a copy of
    // it — so before any layer runs, two copies are live.
    size_t peakBeyondInput = inputBytes;

    Shape cur = input;
    for (const auto &layerPtr : net.layers()) {
        const Layer &layer = *layerPtr;
        accumulateParams(layer, est);

        // Resolve the layer's effective configuration the same way
        // Network::forwardLayer does: an override named after the
        // top-level layer wins (a residual block switches as a unit),
        // everything else runs under the defaults.
        Backend backend = defaultBackend;
        ConvAlgo algo = defaultAlgo;
        int threads = defaultThreads;
        const auto it = overrides.find(layer.name());
        if (it != overrides.end()) {
            backend = it->second.backend;
            algo = it->second.convAlgo;
            threads = it->second.threads;
        }

        const Shape out = layer.outputShape(cur);
        const Transient t =
            layerTransient(layer, cur, backend, algo, threads);

        LayerMemory lm;
        lm.name = layer.name();
        lm.inputBytes = bytesOf(cur);
        lm.outputBytes = bytesOf(out);
        lm.transientBytes = t.act;
        lm.scratchBytes = t.scratch;
        est.perLayer.push_back(lm);

        peakBeyondInput =
            std::max(peakBeyondInput, lm.inputBytes + t.act);
        est.scratchPeak = std::max(est.scratchPeak, t.scratch);
        cur = out;
    }

    est.activationsPeak = inputBytes + peakBeyondInput;
    return est;
}

MemoryEstimate
estimateForwardMemory(const Network &net, const Shape &input,
                      Backend backend, ConvAlgo algo, int threads)
{
    // A single global configuration is the empty-override plan.
    return memoryEstimateForPlan(net, input, {}, backend, algo,
                                 threads);
}

LayerMemory
layerForwardMemory(const Layer &layer, const Shape &input,
                   Backend backend, ConvAlgo algo, int threads)
{
    const Transient t =
        layerTransient(layer, input, backend, algo, threads);
    LayerMemory lm;
    lm.name = layer.name();
    lm.inputBytes = bytesOf(input);
    lm.outputBytes = bytesOf(layer.outputShape(input));
    lm.transientBytes = t.act;
    lm.scratchBytes = t.scratch;
    return lm;
}

} // namespace dlis::analysis

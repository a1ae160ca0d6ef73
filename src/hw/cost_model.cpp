#include "hw/cost_model.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace dlis {

CostModel::CostModel(DeviceModel device)
    : device_(std::move(device))
{
    DLIS_CHECK(!device_.clusters.empty(),
               "device model needs at least one CPU cluster");
}

namespace {

/** Round @p v up to a multiple of @p to. */
size_t
roundUp(size_t v, size_t to)
{
    return (v + to - 1) / to * to;
}

} // namespace

double
CostModel::layerCpuSeconds(const LayerCost &c, int threads) const
{
    const int used =
        c.parallel ? std::min(threads, device_.maxThreads()) : 1;

    double seconds = device_.layerDispatchSec;

    if (c.macs > 0) {
        // Inner-loop startup: a reduce loop of length L achieves
        // peak * L / (L + overheadTaps). Depthwise (L = 9) and narrow
        // pointwise loops are the victims.
        double eff = 1.0;
        if (!c.sparseTraversal && c.gemmK > 0) {
            eff = static_cast<double>(c.gemmK) /
                  (static_cast<double>(c.gemmK) +
                   device_.loopOverheadTaps);
        }
        double eff_macs = static_cast<double>(c.macs) / eff;
        if (c.sparseTraversal) {
            eff_macs = static_cast<double>(c.macs) *
                           device_.sparseMacFactor +
                       static_cast<double>(c.sparseRowVisits) *
                           device_.sparseVisitTaps;
        } else if (c.packedTernary) {
            eff_macs = static_cast<double>(c.denseMacs) *
                       device_.packedDecodeFactor;
        }

        const double compute = eff_macs / device_.macsPerSec(used);
        const double mem_bytes = static_cast<double>(
            c.weightBytes + c.inputBytes + c.outputBytes);
        const double memory = mem_bytes / device_.memBytesPerSec;
        seconds += std::max(compute, memory);
    } else {
        // Elementwise / bookkeeping layer: memory bound.
        const double mem_bytes = static_cast<double>(
            c.weightBytes + c.inputBytes + c.outputBytes);
        seconds += mem_bytes / device_.memBytesPerSec;
    }

    if (c.parallel && used > 1)
        seconds += device_.forkJoinSecPerThread * used;
    return seconds;
}

TimeBreakdown
CostModel::estimateCpu(const std::vector<LayerCost> &layers,
                       int threads) const
{
    std::vector<LayerTime> ignored;
    return estimateCpu(layers, threads, ignored);
}

TimeBreakdown
CostModel::estimateCpu(const std::vector<LayerCost> &layers, int threads,
                       std::vector<LayerTime> &perLayer) const
{
    DLIS_CHECK(threads >= 1, "need at least one thread");
    perLayer.clear();
    perLayer.reserve(layers.size());

    TimeBreakdown t;
    for (const LayerCost &c : layers) {
        const double sec = layerCpuSeconds(c, threads);
        perLayer.push_back({c.name, sec});

        // Decompose for the breakdown (recomputed cheaply).
        const int used =
            c.parallel ? std::min(threads, device_.maxThreads()) : 1;
        const double ovh =
            device_.layerDispatchSec +
            (c.parallel && used > 1
                 ? device_.forkJoinSecPerThread * used
                 : 0.0);
        t.overhead += ovh;
        const double work = sec - ovh;
        const double mem_bytes = static_cast<double>(
            c.weightBytes + c.inputBytes + c.outputBytes);
        const double memory = mem_bytes / device_.memBytesPerSec;
        if (c.macs > 0 && work > memory) {
            t.compute += work;
        } else {
            t.memory += work;
        }
    }
    return t;
}

EnergyBreakdown
CostModel::estimateEnergyCpu(const std::vector<LayerCost> &layers) const
{
    EnergyBreakdown e;
    for (const LayerCost &c : layers) {
        double work = static_cast<double>(c.macs);
        if (c.sparseTraversal) {
            work = static_cast<double>(c.macs) *
                       device_.sparseMacFactor +
                   static_cast<double>(c.sparseRowVisits) *
                       device_.sparseVisitTaps;
        } else if (c.packedTernary) {
            work = static_cast<double>(c.denseMacs) *
                   device_.packedDecodeFactor;
        }
        e.computeJoules += work * device_.joulePerMac;
        e.dramJoules += static_cast<double>(c.weightBytes +
                                            c.inputBytes +
                                            c.outputBytes) *
                        device_.joulePerDramByte;
    }
    return e;
}

TimeBreakdown
CostModel::estimateGpuHandTuned(
    const std::vector<LayerCost> &layers) const
{
    DLIS_CHECK(device_.gpu.has_value(),
               "device '", device_.name, "' has no GPU model");
    const GpuModel &gpu = *device_.gpu;

    TimeBreakdown t;
    for (const LayerCost &c : layers) {
        if (c.parallel && c.macs > 0) {
            // Convolutions and FC layers run as OpenCL kernels.
            t.compute += static_cast<double>(c.denseMacs) /
                         gpu.handKernelMacsPerSec;
            t.overhead += gpu.kernelLaunchSec;
            t.transfer += static_cast<double>(c.weightBytes +
                                              c.inputBytes +
                                              c.outputBytes) /
                          gpu.transferBytesPerSec;
        } else {
            // Elementwise stages stay on the host.
            t.memory += static_cast<double>(
                            c.weightBytes + c.inputBytes +
                            c.outputBytes) /
                        device_.memBytesPerSec;
        }
    }
    return t;
}

TimeBreakdown
CostModel::estimateGpuGemmLib(const std::vector<LayerCost> &layers) const
{
    DLIS_CHECK(device_.gpu.has_value(),
               "device '", device_.name, "' has no GPU model");
    const GpuModel &gpu = *device_.gpu;

    // CLBlast's default Mali tile sizes.
    constexpr size_t mwg = 64, nwg = 64, kwg = 32;

    TimeBreakdown t;
    for (const LayerCost &c : layers) {
        if (c.parallel && c.gemmM > 0) {
            const size_t mp = roundUp(c.gemmM, mwg);
            const size_t np = roundUp(c.gemmN, nwg);
            const size_t kp = roundUp(c.gemmK, kwg);
            const double padded =
                static_cast<double>(mp) * np * kp * c.images;

            t.compute += padded / gpu.gemmMacsPerSec;

            // Host-side im2col materialisation (per image).
            const double im2col_bytes =
                static_cast<double>(c.gemmK) * c.gemmN * c.images *
                sizeof(float);
            t.overhead += im2col_bytes / gpu.im2colBytesPerSec;

            // Library setup + kernel dispatch per call (one per image).
            t.overhead += (gpu.libCallOverheadSec +
                           gpu.kernelLaunchSec) *
                          static_cast<double>(c.images);

            const double bytes = static_cast<double>(
                (c.gemmM * c.gemmK + c.gemmK * c.gemmN +
                 c.gemmM * c.gemmN) *
                c.images * sizeof(float));
            t.transfer += bytes / gpu.transferBytesPerSec;
        } else if (c.parallel && c.macs > 0) {
            // Depthwise stages have no GEMM form; they run as direct
            // OpenCL kernels alongside the library calls.
            t.compute += static_cast<double>(c.denseMacs) /
                         gpu.handKernelMacsPerSec;
            t.overhead += gpu.kernelLaunchSec;
        } else {
            t.memory += static_cast<double>(
                            c.weightBytes + c.inputBytes +
                            c.outputBytes) /
                        device_.memBytesPerSec;
        }
    }
    return t;
}

double
CostModel::expectedTime(double denseSeconds, double macFraction)
{
    DLIS_CHECK(macFraction >= 0.0 && macFraction <= 1.0,
               "MAC fraction must be in [0, 1], got ", macFraction);
    return denseSeconds * macFraction;
}

} // namespace dlis

/**
 * @file
 * Analytical roofline-style cost model.
 *
 * Converts per-layer cost facts (nn/exec_context.hpp LayerCost) into
 * simulated wall-clock time on a DeviceModel, for each of the paper's
 * systems-layer candidates: OpenMP on the CPU clusters, the hand-tuned
 * OpenCL kernels on the GPU, and the CLBlast-style im2col+GEMM library.
 *
 * First-order effects modelled (each one is a paper observation):
 *  - compute vs memory roofline per layer;
 *  - big.LITTLE thread scaling with a contention term (Fig 4 a,c,e);
 *  - per-layer fork/join cost — why MobileNet scales inversely (§V-D);
 *  - inner-loop startup cost — why depthwise/pointwise loops run far
 *    below peak;
 *  - CSR traversal penalty — why sparse formats hurt (§V-D);
 *  - GEMM tile padding, per-call library overhead and host-side
 *    im2col — why CLBlast collapses on 32x32 inputs and wins on
 *    224x224 (§V-F, Fig 6).
 */

#ifndef DLIS_HW_COST_MODEL_HPP
#define DLIS_HW_COST_MODEL_HPP

#include <string>
#include <vector>

#include "hw/device.hpp"
#include "nn/exec_context.hpp"

namespace dlis {

/** Where the simulated time went. */
struct TimeBreakdown
{
    double compute = 0.0;  //!< arithmetic
    double memory = 0.0;   //!< DRAM traffic beyond the compute roof
    double overhead = 0.0; //!< fork/join, dispatch, library, launches
    double transfer = 0.0; //!< host<->device copies

    /** Sum of all components. */
    double total() const
    {
        return compute + memory + overhead + transfer;
    }
};

/** Where the simulated energy went (paper §I: memory dominates). */
struct EnergyBreakdown
{
    double computeJoules = 0.0; //!< arithmetic + traversal work
    double dramJoules = 0.0;    //!< weight + activation traffic

    /** Sum of both components. */
    double total() const { return computeJoules + dramJoules; }
};

/** Per-layer simulated time, for breakdown reporting. */
struct LayerTime
{
    std::string name;
    double seconds = 0.0;
};

/** Cost model bound to one device. */
class CostModel
{
  public:
    explicit CostModel(DeviceModel device);

    /** The device being modelled. */
    const DeviceModel &device() const { return device_; }

    /**
     * Simulated time of one inference on the CPU clusters with
     * @p threads OpenMP threads (1 = the serial version).
     */
    TimeBreakdown estimateCpu(const std::vector<LayerCost> &layers,
                              int threads) const;

    /** As estimateCpu, also filling per-layer times. */
    TimeBreakdown estimateCpu(const std::vector<LayerCost> &layers,
                              int threads,
                              std::vector<LayerTime> &perLayer) const;

    /**
     * Simulated energy of one inference on the CPU clusters: MAC
     * energy for the work actually executed (including sparse
     * traversal and packed-decode overheads) plus DRAM energy for the
     * weight and activation traffic.
     */
    EnergyBreakdown
    estimateEnergyCpu(const std::vector<LayerCost> &layers) const;

    /** Simulated time with the hand-tuned OpenCL kernels on the GPU. */
    TimeBreakdown
    estimateGpuHandTuned(const std::vector<LayerCost> &layers) const;

    /** Simulated time with the CLBlast-style im2col+GEMM library. */
    TimeBreakdown
    estimateGpuGemmLib(const std::vector<LayerCost> &layers) const;

    /**
     * The "expected" time of Fig 1: dense time scaled by the fraction
     * of MACs remaining after compression.
     */
    static double expectedTime(double denseSeconds, double macFraction);

  private:
    double layerCpuSeconds(const LayerCost &c, int threads) const;

    DeviceModel device_;
};

} // namespace dlis

#endif // DLIS_HW_COST_MODEL_HPP

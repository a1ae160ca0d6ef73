/**
 * @file
 * The BatchNorm2d and ReLU an inference forward runs inside a conv's
 * output store.
 *
 * At inference a conv followed by a BatchNorm2d and/or a ReLU runs all
 * three as one pass: the conv's kernel applies its bias, then the
 * BatchNorm's per-channel scale and shift, then the clamp, to each
 * output value where it stores it (ConvEpilogue). The fused layers run
 * no pass and allocate no tensor. The epilogue does the unfused
 * layers' float operations in their order, so outputs are
 * bit-identical to running the layers one by one; no weight is
 * rewritten (nn/fold_bn is the weight-folding alternative).
 */

#ifndef DLIS_NN_CONV_TAIL_HPP
#define DLIS_NN_CONV_TAIL_HPP

#include <vector>

#include "backend/conv_params.hpp"
#include "nn/layer.hpp"

namespace dlis {

class BatchNorm2d;
class ScratchArena;

/** The layers a conv's output store runs at inference. */
struct ConvTail
{
    const BatchNorm2d *bn = nullptr; //!< the BatchNorm right after
    bool relu = false;               //!< a ReLU after the conv or BN

    /** Layers the tail stands for: 0, 1 or 2. */
    size_t layers() const { return (bn ? 1 : 0) + (relu ? 1 : 0); }

    /**
     * The kernel epilogue of this tail for a conv whose output has
     * shape @p convOut (checked against the BatchNorm, as its own
     * forward would). The BatchNorm's scale and shift are computed
     * once per channel into scratchBytes() of @p arena, which must be
     * inside the caller's scope.
     */
    ConvEpilogue bind(const Shape &convOut, ScratchArena &arena) const;

    /** Arena bytes bind() draws for a conv with @p channels outputs. */
    size_t scratchBytes(size_t channels) const;
};

/**
 * The tail the layer at @p i runs in its output store when a network
 * runs @p layers at inference: empty unless layers[i] is a Conv2d or a
 * DepthwiseConv2d, then the BatchNorm2d right after it and the ReLU
 * right after that (or right after the conv). Network::forward and
 * analysis/memory_estimate both decide with this one predicate.
 */
ConvTail inferenceTail(const std::vector<LayerPtr> &layers, size_t i);

} // namespace dlis

#endif // DLIS_NN_CONV_TAIL_HPP

#include "nn/conv_tail.hpp"

#include "backend/elementwise_kernels.hpp"
#include "core/scratch_arena.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/depthwise_conv2d.hpp"

namespace dlis {

ConvEpilogue
ConvTail::bind(const Shape &convOut, ScratchArena &arena) const
{
    ConvEpilogue ep;
    ep.relu = relu;
    if (!bn)
        return ep;
    (void)bn->outputShape(convOut); // the BatchNorm's shape check
    const size_t c = bn->channels();
    float *scale = arena.allocFloats(2 * c);
    kernels::batchNormScaleShift(
        bn->gamma().data(), bn->beta().data(), bn->runningMean().data(),
        bn->runningVar().data(), bn->eps(), c, scale, scale + c);
    ep.scale = scale;
    ep.shift = scale + c;
    return ep;
}

size_t
ConvTail::scratchBytes(size_t channels) const
{
    return bn ? ScratchArena::alignUp(2 * channels * sizeof(float)) : 0;
}

ConvTail
inferenceTail(const std::vector<LayerPtr> &layers, size_t i)
{
    ConvTail tail;
    const Layer *head = layers[i].get();
    if (!dynamic_cast<const Conv2d *>(head) &&
        !dynamic_cast<const DepthwiseConv2d *>(head))
        return tail;
    size_t next = i + 1;
    if (next < layers.size()) {
        tail.bn = dynamic_cast<const BatchNorm2d *>(layers[next].get());
        if (tail.bn)
            ++next;
    }
    tail.relu = next < layers.size() &&
                dynamic_cast<const ReLU *>(layers[next].get());
    return tail;
}

} // namespace dlis

/**
 * @file
 * Batch-norm folding for deployment.
 *
 * At inference time a batch-norm is an affine per-channel transform,
 * so a (convolution, batch-norm) pair collapses into one convolution
 * with rescaled weights and a new bias:
 *
 *   w'[oc] = w[oc] * gamma[oc] / sqrt(var[oc] + eps)
 *   b'[oc] = beta[oc] + (b[oc] - mean[oc]) * gamma[oc] / sqrt(...)
 *
 * Beyond the arithmetic savings, folding *removes whole layers* — and
 * under the paper's per-layer synchronisation model (§IV-D) every
 * removed layer is one fewer fork/join. For MobileNet, whose 27
 * batch-norm stages are pure overhead at high thread counts, folding
 * claws back a large share of the inverse-scaling loss
 * (bench/ablation_bn_folding).
 *
 * Folds top-level (Conv2d | DepthwiseConv2d) -> BatchNorm2d pairs of a
 * sequential network (VGG-16, MobileNet). Residual blocks keep their
 * internal batch-norms (their structure is fixed); sequential
 * networks containing blocks are folded where possible.
 *
 * This is the paper's weight-fold ablation, not the deployment path:
 * it rewrites the weights, so outputs move by rounding. Inference
 * already runs each conv's BatchNorm and ReLU in the conv's output
 * store with the unfused arithmetic, bit for bit and with no weight
 * rewritten (nn/conv_tail.hpp); after a fold, the conv's new bias and
 * its ReLU still fuse that way.
 */

#ifndef DLIS_NN_FOLD_BN_HPP
#define DLIS_NN_FOLD_BN_HPP

#include "nn/network.hpp"

namespace dlis {

/**
 * Fold every adjacent conv->batch-norm pair of @p net in place and
 * erase the folded batch-norm layers.
 *
 * Folding is a deployment transform: erased batch-norms invalidate
 * any Model::pruneUnits metadata pointing at them, so fold only after
 * compression is finished.
 *
 * @pre convolutions are in dense format
 * @returns the number of batch-norm layers folded away
 */
size_t foldBatchNorms(Network &net);

} // namespace dlis

#endif // DLIS_NN_FOLD_BN_HPP

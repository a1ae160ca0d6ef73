/**
 * @file
 * Quickstart: build a CNN, run one inference, inspect cost facts.
 *
 *   $ ./examples/quickstart [vgg16|resnet18|mobilenet]
 *
 * Demonstrates the minimal public API surface: model construction,
 * the execution context, per-layer cost introspection, and the
 * hardware cost model.
 */

#include <cstdio>
#include <string>

#include "hw/cost_model.hpp"
#include "nn/models/model.hpp"
#include "nn/shape_walk.hpp"
#include "train/loss.hpp"

using namespace dlis;

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "resnet18";

    // 1. Build a model (width 0.5 keeps this example snappy).
    Rng rng(42);
    Model model = makeModel(name, /*classes=*/10, /*widthMult=*/0.5,
                            rng);
    std::printf("built %s: %zu parameters, %zu layers\n",
                model.net.name().c_str(), model.net.parameterCount(),
                model.net.size());

    // 2. Run one inference on a random CIFAR-shaped image.
    Tensor image(Shape{1, 3, 32, 32});
    image.fillNormal(rng, 0.0f, 1.0f);

    ExecContext ctx; // serial backend, direct convolution, dense
    Tensor logits = model.net.forward(image, ctx);

    std::printf("logits:");
    for (size_t c = 0; c < logits.numel(); ++c)
        std::printf(" %+.3f", logits[c]);
    std::printf("\n");

    // 3. Inspect where the compute lives.
    const auto costs = collectStageCosts(model.net, image.shape());
    size_t total_macs = 0;
    for (const auto &c : costs)
        total_macs += c.denseMacs;
    std::printf("%zu compute stages, %.1f MMACs total\n", costs.size(),
                static_cast<double>(total_macs) / 1e6);

    // 4. Ask the hardware models what this inference would cost on
    //    the paper's platforms.
    const CostModel odroid(odroidXu4());
    const CostModel i7(intelCoreI7());
    std::printf("simulated inference time:\n");
    for (int threads : {1, 4, 8})
        std::printf("  odroid-xu4, %d threads: %.3f s\n", threads,
                    odroid.estimateCpu(costs, threads).total());
    for (int threads : {1, 4})
        std::printf("  i7-3820,    %d threads: %.3f s\n", threads,
                    i7.estimateCpu(costs, threads).total());
    std::printf("  odroid-xu4, hand-tuned OpenCL: %.3f s\n",
                odroid.estimateGpuHandTuned(costs).total());
    return 0;
}

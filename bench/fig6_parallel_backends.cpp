/**
 * @file
 * Fig 6: plain (dense) models on the Odroid-XU4 under the three
 * parallel implementations — CLBlast-style im2col+GEMM library,
 * OpenMP (8 threads), and hand-tuned OpenCL kernels.
 *
 * Extension rows (§V-F's closing observation): the same comparison for
 * VGG-16 at ImageNet resolution (224x224), where the big GEMMs let the
 * library win. The 224x224 VGG-16 cost list is built analytically from
 * the layer plan (instantiating the 123M-parameter ImageNet weights is
 * unnecessary for the cost model).
 */

#include <cstdio>

#include "bench_common.hpp"
#include "nn/shape_walk.hpp"

using namespace dlis;

namespace {

/** Analytic per-layer costs of VGG-16 on a [1,3,224,224] input. */
std::vector<LayerCost>
vgg16ImageNetCosts()
{
    static const size_t plan[] = {64, 64, 0, 128, 128, 0, 256, 256, 256,
                                  0, 512, 512, 512, 0, 512, 512, 512,
                                  0};
    std::vector<LayerCost> costs;
    size_t cin = 3, h = 224, w = 224;
    size_t idx = 0;
    for (size_t entry : plan) {
        if (entry == 0) {
            h /= 2;
            w /= 2;
            continue;
        }
        ++idx;
        LayerCost c;
        c.name = "conv" + std::to_string(idx);
        c.gemmM = entry;
        c.gemmK = cin * 9;
        c.gemmN = h * w;
        c.images = 1;
        c.denseMacs = c.gemmM * c.gemmK * c.gemmN;
        c.macs = c.denseMacs;
        c.params = c.gemmM * c.gemmK;
        c.weightBytes = c.params * sizeof(float);
        c.inputBytes = cin * h * w * sizeof(float);
        c.outputBytes = entry * h * w * sizeof(float);
        c.parallel = true;
        costs.push_back(c);
        cin = entry;
    }
    // The ImageNet classifier: 25088 -> 4096 -> 4096 -> 1000.
    const size_t fc_dims[][2] = {{25088, 4096}, {4096, 4096},
                                 {4096, 1000}};
    for (size_t i = 0; i < 3; ++i) {
        LayerCost c;
        c.name = "fc" + std::to_string(i + 1);
        c.gemmM = fc_dims[i][1];
        c.gemmK = fc_dims[i][0];
        c.gemmN = 1;
        c.denseMacs = c.gemmM * c.gemmK;
        c.macs = c.denseMacs;
        c.params = c.denseMacs;
        c.weightBytes = c.params * sizeof(float);
        c.inputBytes = c.gemmK * sizeof(float);
        c.outputBytes = c.gemmM * sizeof(float);
        c.parallel = true;
        costs.push_back(c);
    }
    return costs;
}

} // namespace

int
main()
{
    const CostModel odroid(odroidXu4());

    TablePrinter table("Fig 6 — plain models on Odroid-XU4: CLBlast "
                       "vs OpenMP (8t) vs hand-tuned OpenCL");
    table.setHeader({"model", "clblast (s)", "openmp-8t (s)",
                     "opencl-hand (s)"});

    for (const std::string &model : paperModels()) {
        InferenceStack stack(bench::configFor(model, Technique::None,
                                              tableIII(model)));
        const auto costs = stack.stageCosts();
        table.addRow(
            {model,
             fmtSeconds(odroid.estimateGpuGemmLib(costs).total()),
             fmtSeconds(odroid.estimateCpu(costs, 8).total()),
             fmtSeconds(odroid.estimateGpuHandTuned(costs).total())});
    }
    table.print();
    bench::writeBenchOutputs(table, "fig6");

    // Extension: ImageNet-resolution VGG-16 flips the ordering.
    {
        const auto costs = vgg16ImageNetCosts();
        TablePrinter ext("Fig 6 extension — VGG-16 at 224x224 "
                         "(ImageNet): big matrices let CLBlast win "
                         "over OpenMP (§V-F)");
        ext.setHeader({"model", "clblast (s)", "openmp-8t (s)",
                       "opencl-hand (s)"});
        ext.addRow(
            {"vgg16@224",
             fmtSeconds(odroid.estimateGpuGemmLib(costs).total()),
             fmtSeconds(odroid.estimateCpu(costs, 8).total()),
             fmtSeconds(odroid.estimateGpuHandTuned(costs).total())});
        ext.print();
        bench::writeBenchOutputs(ext, "fig6_imagenet");
    }

    std::printf("\nShape to verify: at 32x32 the hand-tuned OpenCL "
                "kernels beat OpenMP, and CLBlast is the slowest by a "
                "wide margin (worst on ResNet-18); at 224x224 CLBlast "
                "overtakes OpenMP.\n");
    return 0;
}

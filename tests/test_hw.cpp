/**
 * @file
 * Hardware cost-model tests: device descriptors, thread scaling, and —
 * most importantly — the paper's qualitative observations, asserted as
 * invariants of the calibrated model:
 *   1. VGG-16/ResNet-18 speed up with threads; MobileNet slows down.
 *   2. CSR sparse formats never beat the plain dense model on
 *      VGG-16/ResNet-18 (Fig 4, §V-D).
 *   3. Channel pruning wins every setup (Fig 4/5).
 *   4. Hand-tuned OpenCL beats OpenMP; CLBlast loses at CIFAR scale
 *      and wins at ImageNet scale (Fig 6, §V-F).
 */

#include <gtest/gtest.h>

#include "hw/cost_model.hpp"
#include "stack/baselines.hpp"
#include "stack/inference_stack.hpp"
#include "test_helpers.hpp"

namespace dlis {
namespace {

StackConfig
configAt(const std::string &model, Technique technique)
{
    const BaselineRates r = tableIII(model);
    StackConfig c;
    c.modelName = model;
    c.technique = technique;
    switch (technique) {
      case Technique::None:
        break;
      case Technique::WeightPruning:
        c.wpSparsity = r.wpSparsity;
        c.format = WeightFormat::Csr;
        break;
      case Technique::ChannelPruning:
        c.cpRate = r.cpRate;
        break;
      case Technique::Quantisation:
        c.ttqThreshold = r.ttqThreshold;
        c.ttqSparsity = r.ttqSparsity;
        c.format = WeightFormat::Csr;
        break;
    }
    // Width-reduced models keep the shape conclusions while keeping
    // the test fast; the bench binaries run at paper scale.
    c.widthMult = 0.5;
    return c;
}

TEST(DeviceModel, ClusterFillOrderAndContention)
{
    const DeviceModel d = odroidXu4();
    EXPECT_EQ(d.maxThreads(), 8);
    // Monotone non-decreasing aggregate throughput.
    double prev = 0.0;
    for (int t = 1; t <= 8; ++t) {
        const double rate = d.macsPerSec(t);
        EXPECT_GT(rate, 0.0);
        EXPECT_GE(rate, prev * 0.99);
        prev = rate;
    }
    // Perfect scaling is impossible under contention.
    EXPECT_LT(d.macsPerSec(4), 4.0 * d.macsPerSec(1));
    // Oversubscription adds nothing.
    EXPECT_DOUBLE_EQ(d.macsPerSec(8), d.macsPerSec(16));
    EXPECT_THROW(d.macsPerSec(0), FatalError);
}

TEST(DeviceModel, I7HasNoGpu)
{
    const DeviceModel d = intelCoreI7();
    EXPECT_FALSE(d.gpu.has_value());
    EXPECT_EQ(d.maxThreads(), 4);
    const CostModel model(d);
    InferenceStack stack(configAt("vgg16", Technique::None));
    EXPECT_THROW(model.estimateGpuHandTuned(stack.stageCosts()),
                 FatalError);
}

TEST(CostModel, BigModelsSpeedUpWithThreads)
{
    const CostModel odroid(odroidXu4());
    const CostModel i7(intelCoreI7());
    for (const char *name : {"vgg16", "resnet18"}) {
        InferenceStack stack(configAt(name, Technique::None));
        const auto costs = stack.stageCosts();
        const double t1 = odroid.estimateCpu(costs, 1).total();
        const double t4 = odroid.estimateCpu(costs, 4).total();
        EXPECT_GT(t1, 1.8 * t4) << name;
        EXPECT_GT(i7.estimateCpu(costs, 1).total(),
                  1.8 * i7.estimateCpu(costs, 4).total())
            << name;
    }
}

TEST(CostModel, MobileNetScalesInversely)
{
    // The paper's standout observation (Fig 4e): more threads make
    // MobileNet slower — per-layer synchronisation dominates its many
    // thin layers.
    const CostModel odroid(odroidXu4());
    InferenceStack stack(configAt("mobilenet", Technique::None));
    const auto costs = stack.stageCosts();
    const double t1 = odroid.estimateCpu(costs, 1).total();
    const double t8 = odroid.estimateCpu(costs, 8).total();
    EXPECT_GT(t8, t1);
}

TEST(CostModel, MobileNetRecoversWithoutSyncCost)
{
    // Ablation (DESIGN.md): zeroing the fork/join term restores
    // normal scaling, evidence for the mechanism.
    DeviceModel d = odroidXu4();
    d.forkJoinSecPerThread = 0.0;
    const CostModel ablated(d);
    InferenceStack stack(configAt("mobilenet", Technique::None));
    const auto costs = stack.stageCosts();
    EXPECT_LT(ablated.estimateCpu(costs, 8).total(),
              ablated.estimateCpu(costs, 1).total());
}

TEST(CostModel, SparseFormatsHurtBigModels)
{
    // §V-D: "for VGG-16 and ResNet-18 the sparse methods fail to
    // provide any speedup and do in fact hurt".
    const CostModel odroid(odroidXu4());
    for (const char *name : {"vgg16", "resnet18"}) {
        InferenceStack plain(configAt(name, Technique::None));
        InferenceStack wp(configAt(name, Technique::WeightPruning));
        InferenceStack ttq(configAt(name, Technique::Quantisation));
        for (int threads : {1, 4, 8}) {
            const double plain_t =
                odroid.estimateCpu(plain.stageCosts(), threads)
                    .total();
            // "fail to provide any speedup": sparse must never be
            // meaningfully faster than plain (ties allowed).
            EXPECT_GE(
                odroid.estimateCpu(wp.stageCosts(), threads).total(),
                plain_t * 0.99)
                << name << " wp @" << threads;
            EXPECT_GE(
                odroid.estimateCpu(ttq.stageCosts(), threads).total(),
                plain_t * 0.99)
                << name << " ttq @" << threads;
        }
    }
}

TEST(CostModel, ChannelPruningWinsEverySetup)
{
    // §V-D: "channel pruning significantly outperforms the other
    // compression techniques in every setup considered".
    const CostModel odroid(odroidXu4());
    const CostModel i7(intelCoreI7());
    for (const char *name : {"vgg16", "resnet18", "mobilenet"}) {
        InferenceStack cp(configAt(name, Technique::ChannelPruning));
        InferenceStack wp(configAt(name, Technique::WeightPruning));
        InferenceStack ttq(configAt(name, Technique::Quantisation));
        for (int threads : {1, 4}) {
            const double cp_o =
                odroid.estimateCpu(cp.stageCosts(), threads).total();
            EXPECT_LT(cp_o, odroid.estimateCpu(wp.stageCosts(),
                                               threads)
                                .total())
                << name;
            EXPECT_LT(cp_o, odroid.estimateCpu(ttq.stageCosts(),
                                               threads)
                                .total())
                << name;
            const double cp_i =
                i7.estimateCpu(cp.stageCosts(), threads).total();
            EXPECT_LT(cp_i, i7.estimateCpu(wp.stageCosts(), threads)
                                .total())
                << name;
        }
    }
}

TEST(CostModel, ResNetChannelPruningBeatsSparseDespiteMoreOps)
{
    // §V-D: "the number of operations is larger in the channel-pruned
    // model than the sparse format (for instance, the ResNet-18
    // models) yet the inference time is still lower".
    const CostModel odroid(odroidXu4());
    InferenceStack cp(configAt("resnet18", Technique::ChannelPruning));
    InferenceStack wp(configAt("resnet18", Technique::WeightPruning));

    size_t cp_ops = 0, wp_ops = 0;
    for (const auto &c : cp.stageCosts())
        cp_ops += c.macs;
    for (const auto &c : wp.stageCosts())
        wp_ops += c.macs;
    EXPECT_GT(cp_ops, wp_ops);
    EXPECT_LT(odroid.estimateCpu(cp.stageCosts(), 4).total(),
              odroid.estimateCpu(wp.stageCosts(), 4).total());
}

TEST(CostModel, HandTunedOpenClBeatsOpenMpAtCifarScale)
{
    const CostModel odroid(odroidXu4());
    for (const char *name : {"vgg16", "resnet18", "mobilenet"}) {
        InferenceStack stack(configAt(name, Technique::None));
        const auto costs = stack.stageCosts();
        EXPECT_LT(odroid.estimateGpuHandTuned(costs).total(),
                  odroid.estimateCpu(costs, 8).total())
            << name;
    }
}

TEST(CostModel, ClBlastLosesAtCifarScale)
{
    // Fig 6: the GEMM library is the slowest backend on 32x32 inputs.
    const CostModel odroid(odroidXu4());
    for (const char *name : {"vgg16", "resnet18", "mobilenet"}) {
        InferenceStack stack(configAt(name, Technique::None));
        const auto costs = stack.stageCosts();
        const double lib = odroid.estimateGpuGemmLib(costs).total();
        EXPECT_GT(lib, odroid.estimateCpu(costs, 8).total()) << name;
        EXPECT_GT(lib, odroid.estimateGpuHandTuned(costs).total())
            << name;
    }
}

TEST(CostModel, ClBlastWinsAtImageNetScale)
{
    // §V-F: "when using the ImageNet dataset for VGG-16 ... the
    // CLBlast library actually outperforms the OpenMP
    // implementations". Build the 224x224 cost list analytically.
    std::vector<LayerCost> costs;
    size_t cin = 3, h = 224;
    for (size_t cout : {64ul, 64ul, 128ul, 128ul, 256ul, 256ul,
                        256ul}) {
        LayerCost c;
        c.name = "conv";
        c.gemmM = cout;
        c.gemmK = cin * 9;
        c.gemmN = h * h;
        c.denseMacs = c.gemmM * c.gemmK * c.gemmN;
        c.macs = c.denseMacs;
        c.weightBytes = c.gemmM * c.gemmK * 4;
        c.inputBytes = cin * h * h * 4;
        c.outputBytes = cout * h * h * 4;
        c.parallel = true;
        costs.push_back(c);
        cin = cout;
        if (cout == 64 || cout == 128)
            h /= 2;
    }
    const CostModel odroid(odroidXu4());
    EXPECT_LT(odroid.estimateGpuGemmLib(costs).total(),
              odroid.estimateCpu(costs, 8).total());
}

TEST(CostModel, ExpectedTimeIsProportional)
{
    EXPECT_DOUBLE_EQ(CostModel::expectedTime(2.0, 0.25), 0.5);
    EXPECT_THROW(CostModel::expectedTime(1.0, 1.5), FatalError);
}

TEST(CostModel, BreakdownComponentsSumToTotal)
{
    const CostModel odroid(odroidXu4());
    InferenceStack stack(configAt("vgg16", Technique::None));
    const TimeBreakdown t = odroid.estimateCpu(stack.stageCosts(), 4);
    EXPECT_NEAR(t.total(),
                t.compute + t.memory + t.overhead + t.transfer, 1e-12);
    EXPECT_GT(t.compute, 0.0);
    EXPECT_GT(t.overhead, 0.0);
}

} // namespace
} // namespace dlis

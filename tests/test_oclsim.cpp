/**
 * @file
 * OpenCL simulator tests: NDRange bookkeeping, work-group execution,
 * transfer records, and backend equivalence of full models across
 * Serial / OpenMP / OclHandTuned / OclGemmLib execution.
 */

#include <gtest/gtest.h>

#include "backend/gemmlib/tuned_gemm.hpp"
#include "backend/oclsim/ndrange.hpp"
#include "nn/conv2d.hpp"
#include "nn/models/model.hpp"
#include "test_helpers.hpp"

namespace dlis {
namespace {

TEST(NDRange, ItemAndGroupCounts)
{
    oclsim::NDRange range;
    range.global = {8, 4, 2};
    range.local = {4, 4, 1};
    EXPECT_EQ(range.totalItems(), 64u);
    EXPECT_EQ(range.totalGroups(), 4u);

    range.local = {3, 4, 1};
    EXPECT_THROW(range.totalGroups(), FatalError);
}

TEST(CommandQueue, ExecutesEveryWorkItemExactlyOnce)
{
    oclsim::CommandQueue queue;
    oclsim::NDRange range;
    range.global = {6, 5, 2};
    range.local = {3, 1, 1};

    std::vector<int> hits(60, 0);
    queue.enqueue(range, [&](const oclsim::WorkItem &wi) {
        const size_t idx = (wi.global[2] * 5 + wi.global[1]) * 6 +
                           wi.global[0];
        ++hits[idx];
        // Local/group decomposition must be consistent.
        EXPECT_EQ(wi.group[0] * 3 + wi.local[0], wi.global[0]);
    });
    for (int h : hits)
        EXPECT_EQ(h, 1);
    ASSERT_EQ(queue.launches().size(), 1u);
    EXPECT_EQ(queue.launches()[0].workItems, 60u);
    EXPECT_EQ(queue.launches()[0].workGroups, 20u);
}

TEST(CommandQueue, GroupKernelGetsLocalMemory)
{
    oclsim::CommandQueue queue;
    oclsim::NDRange range;
    range.global = {4, 4, 1};
    range.local = {2, 2, 1};

    size_t groups_seen = 0;
    queue.enqueueGroups(range, 16 * sizeof(float),
                        [&](const oclsim::WorkGroup &wg, float *local) {
                            ++groups_seen;
                            EXPECT_EQ(wg.size[0], 2u);
                            // Local memory is usable scratch.
                            local[0] = 1.0f;
                        });
    EXPECT_EQ(groups_seen, 4u);
    EXPECT_EQ(queue.launches()[0].localMemBytes, 16 * sizeof(float));
}

TEST(CommandQueue, TransferAccounting)
{
    oclsim::CommandQueue queue;
    queue.recordTransfer(1000, true);
    queue.recordTransfer(500, false);
    EXPECT_EQ(queue.totalTransferBytes(), 1500u);
    queue.reset();
    EXPECT_EQ(queue.totalTransferBytes(), 0u);
    EXPECT_TRUE(queue.launches().empty());
}

TEST(Backends, AllBackendsAgreeOnFullModel)
{
    // The paper's correctness baseline: every systems-layer candidate
    // must compute the same function.
    Rng rng(1);
    Model m = makeVgg16(10, 0.125, rng);
    Tensor in = test::randomTensor(Shape{1, 3, 32, 32}, 2);

    ExecContext serial;
    const Tensor ref = m.net.forward(in, serial);

    ExecContext omp;
    omp.backend = Backend::OpenMP;
    omp.threads = 4;
    EXPECT_LE(m.net.forward(in, omp).maxAbsDiff(ref), 1e-6f);

    ExecContext im2col;
    im2col.convAlgo = ConvAlgo::Im2colGemm;
    EXPECT_LE(m.net.forward(in, im2col).maxAbsDiff(ref), 2e-3f);

    oclsim::CommandQueue queue;
    ExecContext ocl;
    ocl.backend = Backend::OclHandTuned;
    ocl.queue = &queue;
    EXPECT_LE(m.net.forward(in, ocl).maxAbsDiff(ref), 2e-3f);
    EXPECT_GT(queue.launches().size(), 10u); // one per conv layer
    EXPECT_GT(queue.totalTransferBytes(), 0u);

    gemmlib::GemmLibrary lib;
    oclsim::CommandQueue queue2;
    ExecContext gemml;
    gemml.backend = Backend::OclGemmLib;
    gemml.gemmLib = &lib;
    gemml.queue = &queue2;
    EXPECT_LE(m.net.forward(in, gemml).maxAbsDiff(ref), 2e-3f);
    EXPECT_GT(lib.stats().kernelLaunches, 10u);
    EXPECT_GT(lib.stats().paddedFlops, lib.stats().flops);
}

TEST(Backends, ResNetAndMobileNetAgreeAcrossBackends)
{
    for (const char *name : {"resnet18", "mobilenet"}) {
        Rng rng(3);
        Model m = makeModel(name, 10, 0.25, rng);
        Tensor in = test::randomTensor(Shape{1, 3, 32, 32}, 4);

        ExecContext serial;
        const Tensor ref = m.net.forward(in, serial);

        oclsim::CommandQueue queue;
        ExecContext ocl;
        ocl.backend = Backend::OclHandTuned;
        ocl.queue = &queue;
        EXPECT_LE(m.net.forward(in, ocl).maxAbsDiff(ref), 2e-3f)
            << name;

        ExecContext omp;
        omp.backend = Backend::OpenMP;
        omp.threads = 3;
        EXPECT_LE(m.net.forward(in, omp).maxAbsDiff(ref), 1e-6f)
            << name;
    }
}

TEST(Backends, HandTunedConvTakesWideReceptiveFields)
{
    // Full-width VGG-16's late convs reduce 512 x 3 x 3 = 4608 terms
    // per output; the hand-tuned backend must run them and match
    // serial/direct.
    Rng rng(7);
    Conv2d conv("wide", 512, 2, 3, 1, 1);
    conv.initKaiming(rng);
    const Tensor in = test::randomTensor(Shape{1, 512, 4, 4}, 8);

    ExecContext serial;
    const Tensor ref = conv.forward(in, serial);
    oclsim::CommandQueue queue;
    ExecContext ocl;
    ocl.backend = Backend::OclHandTuned;
    ocl.queue = &queue;
    EXPECT_LE(conv.forward(in, ocl).maxAbsDiff(ref), 1e-4f);
}

TEST(Backends, MissingContextPiecesAreRejected)
{
    Rng rng(5);
    Model m = makeVgg16(10, 0.0625, rng);
    Tensor in = test::randomTensor(Shape{1, 3, 32, 32}, 6);

    ExecContext ocl;
    ocl.backend = Backend::OclHandTuned; // no queue
    EXPECT_THROW(m.net.forward(in, ocl), FatalError);

    ExecContext gemml;
    gemml.backend = Backend::OclGemmLib; // no library
    EXPECT_THROW(m.net.forward(in, gemml), FatalError);
}

} // namespace
} // namespace dlis

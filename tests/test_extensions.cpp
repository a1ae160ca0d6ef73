/**
 * @file
 * Tests for the extension subsystems: bit-packed ternary weights,
 * Huffman-coded storage (Deep Compression stage 3), the iterative Deep
 * Compression driver, random channel pruning, and model
 * serialisation.
 */

#include <cmath>
#include <cstdio>

#include <gtest/gtest.h>

#include "backend/conv_kernels.hpp"
#include "compress/deep_compression.hpp"
#include "compress/huffman.hpp"
#include "compress/random_pruner.hpp"
#include "compress/ttq.hpp"
#include "data/synth_cifar.hpp"
#include "hw/cost_model.hpp"
#include "nn/serialize.hpp"
#include "nn/shape_walk.hpp"
#include "test_helpers.hpp"

namespace dlis {
namespace {

using test::expectClose;
using test::randomTensor;

TEST(PackedTernary, RoundTripAndBytes)
{
    Tensor w = randomTensor(Shape{8, 4, 3, 3}, 8);
    // Make it ternary first.
    const TernaryWeights t = TernaryWeights::quantise(w, 0.3);
    const Tensor ternary = t.toDense();

    const PackedTernary packed = PackedTernary::pack(ternary);
    EXPECT_FLOAT_EQ(packed.toDense().maxAbsDiff(ternary), 0.0f);
    EXPECT_NEAR(packed.sparsity(), t.sparsity(), 1e-9);

    // ~16x smaller than float32 (2 bits vs 32), plus two scales.
    const size_t dense_bytes = ternary.numel() * sizeof(float);
    EXPECT_EQ(packed.storageBytes(),
              (ternary.numel() + 3) / 4 + 8);
    EXPECT_LT(packed.storageBytes() * 10, dense_bytes);
}

TEST(PackedTernary, RejectsNonTernaryInput)
{
    Tensor w = randomTensor(Shape{16}, 9); // arbitrary floats
    EXPECT_THROW(PackedTernary::pack(w), FatalError);
}

TEST(PackedTernary, ConvKernelMatchesDense)
{
    ConvParams p{2, 3, 9, 9, 4, 3, 3, 1, 1};
    Tensor w = randomTensor(Shape{4, 3, 3, 3}, 10);
    const Tensor ternary =
        TernaryWeights::quantise(w, 0.2).toDense();
    Tensor input = randomTensor(Shape{2, 3, 9, 9}, 11);
    Tensor bias = randomTensor(Shape{4}, 12);

    Tensor dense(Shape{2, 4, 9, 9});
    kernels::convDirectDense(p, input.data(), ternary.data(),
                             bias.data(), dense.data(), {1});

    const PackedTernary packed = PackedTernary::pack(ternary);
    Tensor out(dense.shape());
    kernels::convDirectPackedTernary(p, input.data(), packed,
                                     bias.data(), out.data(),
                                     {1});
    expectClose(out, dense, 5e-4f);
}

TEST(PackedTernary, FormatWiredThroughConvAndModel)
{
    Rng rng(13);
    Model m = makeVgg16(10, 0.125, rng);
    TtqQuantizer quantizer(0.15);
    quantizer.quantise(m);

    ExecContext ctx;
    Tensor in = randomTensor(Shape{1, 3, 32, 32}, 14);
    const Tensor ref = m.net.forward(in, ctx);

    m.setFormat(WeightFormat::PackedTernary);
    EXPECT_EQ(m.convs[0]->format(), WeightFormat::PackedTernary);
    // Linear layers fall back to CSR (documented behaviour).
    EXPECT_EQ(m.linears[0]->format(), WeightFormat::Csr);
    expectClose(m.net.forward(in, ctx), ref, 2e-3f);

    m.setFormat(WeightFormat::Dense);
    expectClose(m.net.forward(in, ctx), ref, 1e-6f);
}

TEST(PackedTernary, ReproducesPaperTradeoffMemoryDownTimeUp)
{
    // §V-D: packing would make quantised models an order of magnitude
    // smaller but slower. Compare CSR vs packed on the same TTQ'd
    // model with the cost model.
    Rng rng(15);
    Model m = makeVgg16(10, 0.25, rng);
    TtqQuantizer::quantiseToSparsity(m, 0.6952); // Table III VGG

    m.setFormat(WeightFormat::Csr);
    size_t csr_weight_bytes = 0;
    auto csr_costs = collectStageCosts(m.net, Shape{1, 3, 32, 32});
    for (const auto &c : csr_costs)
        csr_weight_bytes += c.weightBytes;
    const CostModel odroid(odroidXu4());
    const double csr_time = odroid.estimateCpu(csr_costs, 1).total();

    m.setFormat(WeightFormat::PackedTernary);
    size_t packed_weight_bytes = 0;
    auto packed_costs = collectStageCosts(m.net, Shape{1, 3, 32, 32});
    for (const auto &c : packed_costs)
        packed_weight_bytes += c.weightBytes;
    const double packed_time =
        odroid.estimateCpu(packed_costs, 1).total();

    EXPECT_LT(packed_weight_bytes * 10, csr_weight_bytes);
    EXPECT_GT(packed_time, csr_time);
}

TEST(Huffman, RoundTripsExactly)
{
    std::vector<uint32_t> symbols;
    Rng rng(16);
    for (int i = 0; i < 5000; ++i) {
        // Skewed distribution: mostly zeros, like pruned weights.
        symbols.push_back(rng.bernoulli(0.8)
                              ? 0
                              : static_cast<uint32_t>(
                                    rng.uniformInt(16) + 1));
    }
    const HuffmanStream stream = HuffmanStream::encode(symbols);
    EXPECT_EQ(stream.decode(), symbols);
}

TEST(Huffman, SkewedStreamsCompressBelowFixedWidth)
{
    // 17 symbols need ~4.09 fixed bits; an 80 %-zero stream's entropy
    // is ~1.9 bits, so Huffman must land well under 4.
    std::vector<uint32_t> symbols;
    Rng rng(17);
    for (int i = 0; i < 20000; ++i)
        symbols.push_back(rng.bernoulli(0.8)
                              ? 0
                              : static_cast<uint32_t>(
                                    rng.uniformInt(16) + 1));
    const HuffmanStream stream = HuffmanStream::encode(symbols);
    EXPECT_LT(stream.bitsPerSymbol(), 3.0);
    EXPECT_GT(stream.bitsPerSymbol(), 1.0);
    EXPECT_EQ(stream.symbolCount(), symbols.size());
}

TEST(Huffman, SingleSymbolStream)
{
    const std::vector<uint32_t> symbols(100, 7);
    const HuffmanStream stream = HuffmanStream::encode(symbols);
    EXPECT_EQ(stream.decode(), symbols);
    EXPECT_LE(stream.bitsPerSymbol(), 1.0);
}

TEST(Huffman, DeepCompressionStorageShrinksWithSparsity)
{
    Tensor dense = randomTensor(Shape{64, 64, 3, 3}, 18);
    const size_t bytes_dense = deepCompressionStorageBytes(dense);

    Tensor pruned = dense;
    Rng rng(19);
    for (size_t i = 0; i < pruned.numel(); ++i)
        if (rng.bernoulli(0.9))
            pruned[i] = 0.0f;
    const size_t bytes_pruned = deepCompressionStorageBytes(pruned);

    EXPECT_LT(bytes_pruned, bytes_dense / 2);
    // And both far below raw float storage.
    EXPECT_LT(bytes_dense, dense.numel() * sizeof(float));
}

TEST(DeepCompressionDriver, ScheduleReachesTargetSparsity)
{
    Rng rng(20);
    Model m = makeVgg16(10, 0.0625, rng);
    const Dataset data = makeSynthCifar({32, 10, 32, 0.25, 21});
    TrainConfig tc;
    tc.batchSize = 16;
    tc.baseLr = 0.01;
    Trainer trainer(m.net, data, tc);

    DeepCompressionConfig config;
    config.initialSparsity = 0.5;
    config.targetSparsity = 0.8;
    config.sparsityStep = 0.15;
    config.fineTuneSteps = 2;
    DeepCompression pipeline(config);

    const auto rounds = pipeline.run(m, trainer);
    ASSERT_GE(rounds.size(), 2u);
    EXPECT_NEAR(rounds.front().sparsity, 0.5, 0.02);
    EXPECT_NEAR(rounds.back().sparsity, 0.8, 0.02);
    // Sparsity is monotone across rounds (fine-tuning never undoes
    // the masks thanks to the post-step hook).
    for (size_t i = 1; i < rounds.size(); ++i)
        EXPECT_GE(rounds[i].sparsity, rounds[i - 1].sparsity - 1e-6);

    EXPECT_LT(pipeline.storageBytes(m),
              m.net.parameterCount() * sizeof(float));
}

TEST(RandomPruner, RemovesRequestedChannels)
{
    Rng rng(22);
    Model m = makeVgg16(10, 0.25, rng);
    const size_t params0 = m.net.parameterCount();

    RandomPruner pruner(m, 23);
    EXPECT_EQ(pruner.removeChannels(12), 12u);
    EXPECT_LT(m.net.parameterCount(), params0);
    EXPECT_GT(pruner.compressionRate(), 0.0);

    ExecContext ctx;
    Tensor out =
        m.net.forward(randomTensor(Shape{1, 3, 32, 32}, 24), ctx);
    EXPECT_EQ(out.shape(), (Shape{1, 10}));
}

TEST(RandomPruner, StopsAtMinimumWidth)
{
    Rng rng(25);
    Model m = makeVgg16(10, 0.0625, rng); // tiny: 4-32 channels
    RandomPruner pruner(m, 26);
    // Ask for far more channels than exist above the floor.
    const size_t removed = pruner.removeChannels(100000, 2);
    EXPECT_LT(removed, 100000u);
    for (const PruneUnit &u : m.pruneUnits)
        EXPECT_LE(u.producer->cout() + 0, 32u);
    for (const PruneUnit &u : m.pruneUnits)
        EXPECT_GE(u.producer->cout(), 2u);
}

TEST(Serialize, RoundTripRestoresExactWeights)
{
    const std::string path = "/tmp/dlis_test_checkpoint.bin";
    Rng rng(27);
    Model a = makeResNet18(10, 0.125, rng);
    saveParameters(a.net, path);

    Rng rng2(28); // different init
    Model b = makeResNet18(10, 0.125, rng2);
    ExecContext ctx;
    Tensor in = randomTensor(Shape{1, 3, 32, 32}, 29);
    const Tensor before = b.net.forward(in, ctx);
    loadParameters(b.net, path);
    const Tensor after = b.net.forward(in, ctx);

    const Tensor expected = a.net.forward(in, ctx);
    EXPECT_GT(before.maxAbsDiff(expected), 0.0f);
    EXPECT_FLOAT_EQ(after.maxAbsDiff(expected), 0.0f);
    std::remove(path.c_str());
}

TEST(Serialize, RejectsMismatchedArchitecture)
{
    const std::string path = "/tmp/dlis_test_checkpoint2.bin";
    Rng rng(30);
    Model a = makeVgg16(10, 0.125, rng);
    saveParameters(a.net, path);

    Model wrong_width = makeVgg16(10, 0.25, rng);
    EXPECT_THROW(loadParameters(wrong_width.net, path), FatalError);
    Model wrong_arch = makeMobileNet(10, 0.125, rng);
    EXPECT_THROW(loadParameters(wrong_arch.net, path), FatalError);
    EXPECT_THROW(loadParameters(a.net, "/nonexistent/x.bin"),
                 FatalError);
    std::remove(path.c_str());
}

TEST(Serialize, PrunedModelCheckpointsRoundTrip)
{
    const std::string path = "/tmp/dlis_test_checkpoint3.bin";
    Rng rng(31);
    Model a = makeVgg16(10, 0.125, rng);
    RandomPruner pruner(a, 32);
    pruner.removeChannels(8);
    saveParameters(a.net, path);

    // Same surgery sequence -> same architecture -> loadable.
    Rng rng2(31);
    Model b = makeVgg16(10, 0.125, rng2);
    RandomPruner pruner2(b, 32);
    pruner2.removeChannels(8);
    loadParameters(b.net, path);

    ExecContext ctx;
    Tensor in = randomTensor(Shape{1, 3, 32, 32}, 33);
    EXPECT_FLOAT_EQ(
        b.net.forward(in, ctx).maxAbsDiff(a.net.forward(in, ctx)),
        0.0f);
    std::remove(path.c_str());
}

} // namespace
} // namespace dlis

/**
 * @file
 * Batch-invariance: a batch-N forward must equal the N batch-1
 * forwards of its rows, concatenated. This is the correctness
 * contract the serving engine's dynamic batcher relies on — it
 * coalesces unrelated requests into one forward on the promise that
 * batching is semantically invisible.
 *
 * Every CPU kernel in this codebase reduces each output element in a
 * fixed sequential order that does not depend on the batch dimension,
 * so the contract holds *bit-exactly*, and that is what these tests
 * assert (tolerance 0): any future kernel that reassociates across
 * the batch axis must come with an explicit decision to weaken this.
 */

#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "nn/models/model.hpp"
#include "nn/residual_block.hpp"
#include "test_helpers.hpp"

namespace dlis {
namespace {

/** Stack @p rows (each [1, ...]) into one batch-N tensor. */
Tensor
concatRows(const std::vector<Tensor> &rows)
{
    std::vector<size_t> dims = rows.front().shape().dims();
    dims[0] = rows.size();
    Tensor out{Shape(dims)};
    const size_t perRow = rows.front().numel();
    for (size_t i = 0; i < rows.size(); ++i)
        std::copy_n(rows[i].data(), perRow, out.data() + i * perRow);
    return out;
}

/** Row @p i of a batch tensor as a batch-1 tensor. */
Tensor
sliceRow(const Tensor &batch, size_t i)
{
    std::vector<size_t> dims = batch.shape().dims();
    const size_t perRow = batch.numel() / dims[0];
    dims[0] = 1;
    Tensor row{Shape(dims)};
    std::copy_n(batch.data() + i * perRow, perRow, row.data());
    return row;
}

void
checkBatchInvariance(const std::string &modelName, ExecContext &ctx,
                     const char *what, size_t kBatch = 3)
{
    SCOPED_TRACE(std::string(modelName) + " / " + what);
    Rng rng(7);
    Model model = makeModel(modelName, 10, 0.25, rng);

    std::vector<Tensor> rows;
    for (size_t i = 0; i < kBatch; ++i)
        rows.push_back(
            test::randomTensor(Shape{1, 3, 32, 32}, 100 + i));

    const Tensor batched =
        model.net.forward(concatRows(rows), ctx);
    ASSERT_EQ(batched.shape()[0], kBatch);

    for (size_t i = 0; i < kBatch; ++i) {
        SCOPED_TRACE("row " + std::to_string(i));
        const Tensor single = model.net.forward(rows[i], ctx);
        const Tensor row = sliceRow(batched, i);
        ASSERT_EQ(single.shape().numel(), row.numel());
        EXPECT_EQ(single.maxAbsDiff(row), 0.0f)
            << "batch-" << kBatch << " forward differs from the "
            << "batch-1 forward of row " << i;
    }
}

TEST(BatchSemantics, SerialDirect)
{
    ExecContext ctx;
    for (const char *model : {"mobilenet", "resnet18", "vgg16"})
        checkBatchInvariance(model, ctx, "serial direct");
}

TEST(BatchSemantics, SerialIm2colGemm)
{
    ExecContext ctx;
    ctx.convAlgo = ConvAlgo::Im2colGemm;
    for (const char *model : {"mobilenet", "resnet18", "vgg16"})
        checkBatchInvariance(model, ctx, "serial im2col+GEMM");
}

TEST(BatchSemantics, OpenMpDirect)
{
    ExecContext ctx;
    ctx.backend = Backend::OpenMP;
    ctx.threads = 4;
    for (const char *model : {"mobilenet", "resnet18", "vgg16"})
        checkBatchInvariance(model, ctx, "OpenMP direct");
}

TEST(BatchSemantics, OpenMpIm2colGemm)
{
    ExecContext ctx;
    ctx.backend = Backend::OpenMP;
    ctx.threads = 4;
    ctx.convAlgo = ConvAlgo::Im2colGemm;
    for (const char *model : {"mobilenet", "resnet18", "vgg16"})
        checkBatchInvariance(model, ctx, "OpenMP im2col+GEMM");
}

// At batch 9 the im2col path folds images into the GEMM's N in
// groups of up to one column tile: MobileNet's 4x4 layers run groups
// of 4 + 4 + 1 (a partial last group), its 2x2 and 1x1 layers 8 + 1.
TEST(BatchSemantics, SerialIm2colGemmFoldedBatch9)
{
    ExecContext ctx;
    ctx.convAlgo = ConvAlgo::Im2colGemm;
    for (const char *model : {"mobilenet", "resnet18", "vgg16"})
        checkBatchInvariance(model, ctx, "serial im2col+GEMM", 9);
}

TEST(BatchSemantics, OpenMpIm2colGemmFoldedBatch9)
{
    ExecContext ctx;
    ctx.backend = Backend::OpenMP;
    ctx.threads = 4;
    ctx.convAlgo = ConvAlgo::Im2colGemm;
    for (const char *model : {"mobilenet", "resnet18", "vgg16"})
        checkBatchInvariance(model, ctx, "OpenMP im2col+GEMM", 9);
}

TEST(BatchSemantics, CsrFormat)
{
    // The deployment format the paper ships: CSR weights, direct
    // sparse traversal.
    ExecContext ctx;
    Rng rng(11);
    Model model = makeModel("mobilenet", 10, 0.25, rng);
    // Prune-like sparsity so CSR rows are genuinely ragged.
    for (Conv2d *conv : model.convs) {
        Tensor &w = conv->weight();
        Rng mask(conv->weight().numel());
        for (size_t i = 0; i < w.numel(); ++i)
            if (mask.bernoulli(0.5))
                w[i] = 0.0f;
    }
    model.setFormat(WeightFormat::Csr);

    constexpr size_t kBatch = 4;
    std::vector<Tensor> rows;
    for (size_t i = 0; i < kBatch; ++i)
        rows.push_back(
            test::randomTensor(Shape{1, 3, 32, 32}, 200 + i));

    const Tensor batched = model.net.forward(concatRows(rows), ctx);
    for (size_t i = 0; i < kBatch; ++i) {
        const Tensor single = model.net.forward(rows[i], ctx);
        EXPECT_EQ(single.maxAbsDiff(sliceRow(batched, i)), 0.0f)
            << "CSR batch forward differs at row " << i;
    }
}

// ---------------------------------------------------------------------
// Fused inference: Network::forward runs each conv's BatchNorm and ReLU
// in the conv's output store, and must equal the layers run one by one
// bit for bit — NaN, infinities and signed zeros included.
// ---------------------------------------------------------------------

/** Give every BatchNorm (block-internal ones too) non-trivial stats. */
void
randomiseBatchNorms(Network &net, uint64_t seed)
{
    Rng rng(seed);
    auto randomise = [&](BatchNorm2d &bn) {
        auto draw = [&](double lo, double hi) {
            return static_cast<float>(rng.uniform(lo, hi));
        };
        for (size_t c = 0; c < bn.channels(); ++c) {
            bn.gamma()[c] = draw(0.5, 1.5);
            bn.beta()[c] = draw(-0.5, 0.5);
            bn.runningMean()[c] = draw(-0.3, 0.3);
            bn.runningVar()[c] = draw(0.2, 2.0);
        }
    };
    for (const LayerPtr &layer : net.layers()) {
        if (auto *bn = dynamic_cast<BatchNorm2d *>(layer.get()))
            randomise(*bn);
        if (auto *block = dynamic_cast<ResidualBlock *>(layer.get())) {
            randomise(block->bn1());
            randomise(block->bn2());
            if (block->projectionBn())
                randomise(*block->projectionBn());
        }
    }
}

/** Random images with NaN, +-Inf and -0.0 planted in every one. */
Tensor
specialValueImages(size_t batch, uint64_t seed)
{
    Tensor t = test::randomTensor(Shape{batch, 3, 32, 32}, seed);
    const size_t image = t.numel() / batch;
    const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(),
                              -0.0f};
    for (size_t img = 0; img < batch; ++img)
        for (size_t k = 0; k < 4; ++k)
            t[img * image + (97 + 331 * k + 53 * img) % image] =
                specials[k];
    for (size_t i = 0; i < t.numel(); i += 17)
        t[i] = -0.0f;
    return t;
}

bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    return a.shape().dims() == b.shape().dims() &&
           std::memcmp(a.data(), b.data(), a.bytes()) == 0;
}

TEST(FusedInference, ForwardIsBitwiseLayerByLayer)
{
    for (const char *name : {"vgg16", "resnet18", "mobilenet"}) {
        Rng rng(21);
        Model model = makeModel(name, 10, 0.25, rng);
        randomiseBatchNorms(model.net, 22);
        for (const ConvAlgo algo :
             {ConvAlgo::Direct, ConvAlgo::Im2colGemm}) {
            for (const int threads : {1, 4}) {
                for (const size_t batch : {size_t{1}, size_t{8}}) {
                    SCOPED_TRACE(std::string(name) + " " +
                                 convAlgoName(algo) + " threads " +
                                 std::to_string(threads) + " batch " +
                                 std::to_string(batch));
                    ExecContext ctx;
                    ctx.backend = threads > 1 ? Backend::OpenMP
                                              : Backend::Serial;
                    ctx.threads = threads;
                    ctx.convAlgo = algo;
                    const Tensor in = specialValueImages(batch, 23);
                    const Tensor fused = model.net.forward(in, ctx);
                    Tensor layered = in;
                    for (const LayerPtr &layer : model.net.layers())
                        layered = layer->forward(layered, ctx);
                    EXPECT_TRUE(bitwiseEqual(fused, layered));
                    EXPECT_TRUE(std::isfinite(fused[0]));
                }
            }
        }
    }
}

// The direct sparse and packed kernels apply the same epilogue to each
// finished output plane.
TEST(FusedInference, CsrAndPackedTernaryConvsFuseBitwise)
{
    for (const WeightFormat format :
         {WeightFormat::Csr, WeightFormat::PackedTernary}) {
        Rng rng(24);
        Model model = makeModel("mobilenet", 10, 0.25, rng);
        randomiseBatchNorms(model.net, 25);
        // Ternary codes (and ragged CSR rows): +0.5, -0.25 or 0.
        for (Conv2d *conv : model.convs) {
            Tensor &w = conv->weight();
            for (size_t i = 0; i < w.numel(); ++i)
                w[i] = w[i] > 0.3f ? 0.5f : w[i] < -0.3f ? -0.25f : 0.0f;
        }
        model.setFormat(format);
        for (const int threads : {1, 4}) {
            SCOPED_TRACE(std::string(weightFormatName(format)) +
                         " threads " + std::to_string(threads));
            ExecContext ctx;
            ctx.backend =
                threads > 1 ? Backend::OpenMP : Backend::Serial;
            ctx.threads = threads;
            const Tensor in = specialValueImages(3, 26);
            const Tensor fused = model.net.forward(in, ctx);
            Tensor layered = in;
            for (const LayerPtr &layer : model.net.layers())
                layered = layer->forward(layered, ctx);
            EXPECT_TRUE(bitwiseEqual(fused, layered));
        }
    }
}

} // namespace
} // namespace dlis

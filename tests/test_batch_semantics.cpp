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

#include <gtest/gtest.h>

#include "nn/models/model.hpp"
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

} // namespace
} // namespace dlis

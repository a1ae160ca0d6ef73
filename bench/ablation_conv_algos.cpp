/**
 * @file
 * Ablation — convolution algorithm choice (the paper's layer-3
 * candidates, §II-B): direct convolution vs im2col+GEMM, measured on
 * this host for real across the VGG-16 conv layer shapes, with the
 * im2col scratch-memory footprint.
 */

#include <chrono>
#include <functional>
#include <cstdio>

#include "backend/conv_kernels.hpp"
#include "backend/gemm.hpp"
#include "backend/im2col.hpp"
#include "core/rng.hpp"
#include "bench_common.hpp"
#include "stack/report.hpp"

using namespace dlis;

namespace {

double
timeIt(const std::function<void()> &fn, int reps = 3)
{
    double best = 1e30;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(
            best, std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

} // namespace

int
main()
{
    TablePrinter table("Ablation — conv algorithm per VGG-16 layer "
                       "shape (host-measured, serial)");
    table.setHeader({"layer (cinxH@cout)", "direct (ms)",
                     "im2col+gemm (ms)", "im2col scratch (KB)"});

    struct LayerShape
    {
        size_t cin, h, cout;
    };
    // One representative layer per VGG block.
    const LayerShape shapes[] = {{3, 32, 64},
                                 {64, 32, 64},
                                 {128, 16, 128},
                                 {256, 8, 256},
                                 {512, 4, 512},
                                 {512, 2, 512}};

    Rng rng(1);
    for (const auto &shape : shapes) {
        ConvParams p{1,       shape.cin, shape.h, shape.h,
                     shape.cout, 3,         3,       1,
                     1};
        Tensor input(Shape{1, shape.cin, shape.h, shape.h});
        input.fillNormal(rng, 0.0f, 1.0f);
        Tensor weight(Shape{shape.cout, shape.cin, 3, 3},
                      MemClass::Weights);
        weight.fillKaiming(rng);
        Tensor out(Shape{1, shape.cout, shape.h, shape.h});

        const double direct_ms =
            timeIt([&] {
                kernels::convDirectDense(p, input.data(),
                                         weight.data(), nullptr,
                                         out.data(), {1});
            }) *
            1e3;

        const size_t ck = shape.cin * 9;
        const size_t spatial = p.hout() * p.wout();
        std::vector<float> cols(ck * spatial);
        const double im2col_ms =
            timeIt([&] {
                kernels::im2col(p, input.data(), cols.data());
                kernels::gemmBlocked(weight.data(), cols.data(),
                                     out.data(), shape.cout, ck,
                                     spatial, {1});
            }) *
            1e3;

        char label[64];
        std::snprintf(label, sizeof(label), "%zux%zu@%zu", shape.cin,
                      shape.h, shape.cout);
        table.addRow({label, fmtDouble(direct_ms, 2),
                      fmtDouble(im2col_ms, 2),
                      fmtDouble(cols.size() * 4.0 / 1024.0, 1)});
    }
    table.print();
    bench::writeBenchOutputs(table, "ablation_conv_algos");
    return 0;
}

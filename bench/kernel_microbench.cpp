/**
 * @file
 * google-benchmark microbenchmarks of the compute kernels: the
 * dense-vs-CSR traversal cost that underlies the paper's sparse
 * slowdown, GEMM blocking, im2col, and the CLBlast-style library's
 * packing overhead on small vs large matrices.
 *
 * Each benchmark runs repeated measurements and reports median and
 * p90 aggregates (not a single mean): kernel times on a shared host
 * are skewed by scheduler noise, and the median/p90 pair shows both
 * the typical cost and the tail.
 */

#include <vector>

#include <benchmark/benchmark.h>

#include "backend/conv_kernels.hpp"
#include "backend/gemm.hpp"
#include "backend/gemmlib/tuned_gemm.hpp"
#include "backend/im2col.hpp"
#include "backend/simd/dispatch.hpp"
#include "backend/simd/isa.hpp"
#include "core/rng.hpp"
#include "core/scratch_arena.hpp"
#include "core/tensor.hpp"
#include "tune/measure.hpp"

namespace dlis {
namespace {

/** p90 aggregate across repetitions, via the shared harness. */
double
p90Statistic(const std::vector<double> &samples)
{
    return tune::percentileOf(samples, 90.0);
}

/**
 * Register @p fn with the repeat/aggregate policy shared by every
 * microbenchmark here: 7 repetitions, report median (built-in) and
 * p90 only. google-benchmark's "median" aggregate across repetitions
 * replaces the old single-run mean.
 */
#define DLIS_BENCHMARK(fn)                                            \
    BENCHMARK(fn)                                                     \
        ->Repetitions(7)                                              \
        ->ComputeStatistics("p90", p90Statistic)                      \
        ->ReportAggregatesOnly(true)

Tensor
randomTensor(Shape shape, uint64_t seed)
{
    Rng rng(seed);
    Tensor t(std::move(shape));
    t.fillNormal(rng, 0.0f, 1.0f);
    return t;
}

/** Direct dense conv on a VGG-like layer (64ch, 32x32). */
void
BM_ConvDirectDense(benchmark::State &state)
{
    const size_t c = static_cast<size_t>(state.range(0));
    ConvParams p{1, c, 32, 32, c, 3, 3, 1, 1};
    Tensor in = randomTensor(Shape{1, c, 32, 32}, 1);
    Tensor w = randomTensor(Shape{c, c, 3, 3}, 2);
    Tensor out(Shape{1, c, 32, 32});
    for (auto _ : state) {
        kernels::convDirectDense(p, in.data(), w.data(), nullptr,
                                 out.data(), {1});
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * p.macs()));
}
DLIS_BENCHMARK(BM_ConvDirectDense)->Arg(16)->Arg(32)->Arg(64);

/** Scalar-pinned twin of BM_ConvDirectDense (see BM_GemmBlockedScalar). */
void
BM_ConvDirectDenseScalar(benchmark::State &state)
{
    const size_t c = static_cast<size_t>(state.range(0));
    ConvParams p{1, c, 32, 32, c, 3, 3, 1, 1};
    Tensor in = randomTensor(Shape{1, c, 32, 32}, 1);
    Tensor w = randomTensor(Shape{c, c, 3, 3}, 2);
    Tensor out(Shape{1, c, 32, 32});
    simd::ScopedForceIsa force(simd::SimdIsa::Scalar);
    for (auto _ : state) {
        kernels::convDirectDense(p, in.data(), w.data(), nullptr,
                                 out.data(), {1});
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * p.macs()));
}
DLIS_BENCHMARK(BM_ConvDirectDenseScalar)->Arg(16)->Arg(32)->Arg(64);

/**
 * 3x3 depthwise conv at MobileNet's shapes (width 0.5, 32x32 input):
 * args are {channels, spatial size, stride, batch} — dw1, dw2, dw7,
 * dw13, and dw7 at batch 8, where the batch fills the vector lanes.
 */
void
convDepthwise(benchmark::State &state)
{
    const size_t c = static_cast<size_t>(state.range(0));
    const size_t hw = static_cast<size_t>(state.range(1));
    const size_t stride = static_cast<size_t>(state.range(2));
    const size_t n = static_cast<size_t>(state.range(3));
    const ConvParams p{n, c, hw, hw, c, 3, 3, stride, 1};
    Tensor in = randomTensor(Shape{n, c, hw, hw}, 20);
    Tensor w = randomTensor(Shape{c, 1, 3, 3}, 21);
    Tensor b = randomTensor(Shape{c}, 22);
    Tensor out(Shape{n, c, p.hout(), p.wout()});
    for (auto _ : state) {
        kernels::convDepthwiseDense(p, in.data(), w.data(), b.data(),
                                    out.data(), {1});
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(
        state.iterations() * n * c * p.hout() * p.wout() * 9));
}

void
BM_ConvDepthwise(benchmark::State &state)
{
    convDepthwise(state);
}
DLIS_BENCHMARK(BM_ConvDepthwise)
    ->Args({16, 16, 1, 1})
    ->Args({32, 16, 2, 1})
    ->Args({256, 2, 1, 1})
    ->Args({512, 1, 1, 1})
    ->Args({256, 2, 1, 8});

/** Scalar-pinned twin of BM_ConvDepthwise (see BM_GemmBlockedScalar). */
void
BM_ConvDepthwiseScalar(benchmark::State &state)
{
    simd::ScopedForceIsa force(simd::SimdIsa::Scalar);
    convDepthwise(state);
}
DLIS_BENCHMARK(BM_ConvDepthwiseScalar)
    ->Args({16, 16, 1, 1})
    ->Args({32, 16, 2, 1})
    ->Args({256, 2, 1, 1})
    ->Args({512, 1, 1, 1})
    ->Args({256, 2, 1, 8});

/**
 * CSR-bank conv at a given sparsity percentage: shows the per-MAC
 * traversal penalty that defeats weight pruning on real hardware.
 */
void
BM_ConvCsrBank(benchmark::State &state)
{
    const size_t c = 32;
    const double sparsity =
        static_cast<double>(state.range(0)) / 100.0;
    ConvParams p{1, c, 32, 32, c, 3, 3, 1, 1};
    Tensor in = randomTensor(Shape{1, c, 32, 32}, 3);
    Tensor w = randomTensor(Shape{c, c, 3, 3}, 4);
    Rng rng(5);
    for (size_t i = 0; i < w.numel(); ++i)
        if (rng.bernoulli(sparsity))
            w[i] = 0.0f;
    const CsrFilterBank bank = CsrFilterBank::fromFilter(w);
    Tensor out(Shape{1, c, 32, 32});
    for (auto _ : state) {
        kernels::convDirectCsrBank(p, in.data(), bank, nullptr,
                                   out.data(), {1});
        benchmark::DoNotOptimize(out.data());
    }
    state.counters["sparsity%"] =
        static_cast<double>(state.range(0));
}
DLIS_BENCHMARK(BM_ConvCsrBank)->Arg(0)->Arg(50)->Arg(77)->Arg(90);

/** Blocked GEMM vs problem size (dispatched micro-kernel). */
void
BM_GemmBlocked(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    Tensor a = randomTensor(Shape{n, n}, 6);
    Tensor b = randomTensor(Shape{n, n}, 7);
    Tensor c(Shape{n, n});
    for (auto _ : state) {
        kernels::gemmBlocked(a.data(), b.data(), c.data(), n, n, n,
                             {1});
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * n * n * n));
}
DLIS_BENCHMARK(BM_GemmBlocked)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Arg(512);

/**
 * The same blocked GEMM pinned to the scalar reference loop: the
 * BM_GemmBlocked / BM_GemmBlockedScalar ratio is the dispatch layer's
 * speedup, and tools/bench/compare_microbench.py fails CI when the
 * dispatched variant regresses toward it.
 */
void
BM_GemmBlockedScalar(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    Tensor a = randomTensor(Shape{n, n}, 6);
    Tensor b = randomTensor(Shape{n, n}, 7);
    Tensor c(Shape{n, n});
    simd::ScopedForceIsa force(simd::SimdIsa::Scalar);
    for (auto _ : state) {
        kernels::gemmBlocked(a.data(), b.data(), c.data(), n, n, n,
                             {1});
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * n * n * n));
}
DLIS_BENCHMARK(BM_GemmBlockedScalar)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Arg(512);

/**
 * Blocked GEMM at the (M, K, N) shapes of the 2x2-spatial late
 * layers, where N < 8 runs entirely in the micro-kernel's column
 * remainder: VGG-16 conv11 (256, 2304, 4), MobileNet pw7 (256, 256,
 * 4) and a single column (256, 2304, 1). Square BM_GemmBlocked never
 * reaches that path.
 */
void
gemmSmallN(benchmark::State &state)
{
    const size_t m = static_cast<size_t>(state.range(0));
    const size_t k = static_cast<size_t>(state.range(1));
    const size_t n = static_cast<size_t>(state.range(2));
    Tensor a = randomTensor(Shape{m, k}, 18);
    Tensor b = randomTensor(Shape{k, n}, 19);
    Tensor c(Shape{m, n});
    for (auto _ : state) {
        kernels::gemmBlocked(a.data(), b.data(), c.data(), m, k, n,
                             {1});
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * m * k * n));
}

void
BM_GemmSmallN(benchmark::State &state)
{
    gemmSmallN(state);
}
DLIS_BENCHMARK(BM_GemmSmallN)
    ->Args({256, 2304, 4})
    ->Args({256, 256, 4})
    ->Args({256, 256, 32})
    ->Args({256, 2304, 1});

/** Scalar-pinned twin of BM_GemmSmallN (see BM_GemmBlockedScalar). */
void
BM_GemmSmallNScalar(benchmark::State &state)
{
    simd::ScopedForceIsa force(simd::SimdIsa::Scalar);
    gemmSmallN(state);
}
DLIS_BENCHMARK(BM_GemmSmallNScalar)
    ->Args({256, 2304, 4})
    ->Args({256, 256, 4})
    ->Args({256, 256, 32})
    ->Args({256, 2304, 1});

/**
 * The GEMM library's fixed packing/padding work: tiny (CIFAR-shaped)
 * calls waste most of their time, large calls amortise it — the
 * crossover behind Fig 6 vs the ImageNet extension.
 */
void
BM_GemmLibraryCall(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    const size_t m = 64, k = 576; // a VGG conv's weight matrix
    Tensor a = randomTensor(Shape{m, k}, 8);
    Tensor b = randomTensor(Shape{k, n}, 9);
    Tensor c(Shape{m, n});
    gemmlib::GemmLibrary lib;
    for (auto _ : state) {
        lib.gemm(a.data(), b.data(), c.data(), m, k, n, {1});
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * m * k * n));
}
DLIS_BENCHMARK(BM_GemmLibraryCall)->Arg(16)->Arg(64)->Arg(1024);

/** Packed-ternary decode-on-the-fly conv (the §V-D declined path). */
void
BM_ConvPackedTernary(benchmark::State &state)
{
    const size_t c = 32;
    ConvParams p{1, c, 32, 32, c, 3, 3, 1, 1};
    Tensor in = randomTensor(Shape{1, c, 32, 32}, 13);
    Tensor w = randomTensor(Shape{c, c, 3, 3}, 14);
    // Ternarise with the sparsity given by the benchmark argument.
    Rng rng(15);
    const double sparsity =
        static_cast<double>(state.range(0)) / 100.0;
    for (size_t i = 0; i < w.numel(); ++i) {
        if (rng.bernoulli(sparsity))
            w[i] = 0.0f;
        else
            w[i] = w[i] > 0.0f ? 0.25f : -0.31f;
    }
    const PackedTernary packed = PackedTernary::pack(w);
    Tensor out(Shape{1, c, 32, 32});
    for (auto _ : state) {
        kernels::convDirectPackedTernary(p, in.data(), packed, nullptr,
                                         out.data(), {1});
        benchmark::DoNotOptimize(out.data());
    }
    state.counters["weightKB"] =
        static_cast<double>(packed.storageBytes()) / 1024.0;
}
DLIS_BENCHMARK(BM_ConvPackedTernary)->Arg(50)->Arg(90);

/**
 * im2col packing rate of one image group: @p c channels of
 * @p side x @p side planes, @p kernel x @p kernel taps (stride 1,
 * "same" padding), @p imgs images side by side, packed over the whole
 * task range as a serial conv does.
 */
void
im2colRate(benchmark::State &state, size_t c, size_t side, size_t kernel,
           size_t imgs)
{
    const ConvParams p{imgs, c, side, side, c, kernel, kernel, 1,
                       kernel / 2};
    Tensor in = randomTensor(Shape{imgs, c, side, side}, 10);
    std::vector<float> cols(imgs * kernels::im2colBufferSize(p));
    const kernels::Im2colGroup group{p, in.data(), imgs, cols.data()};
    for (auto _ : state) {
        kernels::im2colPack(group, 0, group.tasks());
        benchmark::DoNotOptimize(cols.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<int64_t>(
        state.iterations() * cols.size() * sizeof(float)));
}

/** im2col expansion rate of one 32x32 image, 3x3 taps. */
void
BM_Im2col(benchmark::State &state)
{
    im2colRate(state, static_cast<size_t>(state.range(0)), 32, 3, 1);
}
DLIS_BENCHMARK(BM_Im2col)->Arg(16)->Arg(64);

/** Scalar-pinned twin of BM_Im2col (see BM_GemmBlockedScalar). */
void
BM_Im2colScalar(benchmark::State &state)
{
    simd::ScopedForceIsa force(simd::SimdIsa::Scalar);
    im2colRate(state, static_cast<size_t>(state.range(0)), 32, 3, 1);
}
DLIS_BENCHMARK(BM_Im2colScalar)->Arg(16)->Arg(64);

/**
 * Narrow-plane rows of BM_Im2col, args {channels, plane side, kernel,
 * images}: VGG-16 conv11-13 (256 ch, 2x2), 128 ch on 4x4, and
 * MobileNet pw13's batch-8 group (512 ch, 1x1 plane, 1x1 taps), where
 * per-span overhead, not bandwidth, sets the rate.
 */
void
im2colNarrow(benchmark::State &state)
{
    im2colRate(state, static_cast<size_t>(state.range(0)),
               static_cast<size_t>(state.range(1)),
               static_cast<size_t>(state.range(2)),
               static_cast<size_t>(state.range(3)));
}
DLIS_BENCHMARK(im2colNarrow)
    ->Name("BM_Im2col")
    ->Args({256, 2, 3, 1})
    ->Args({128, 4, 3, 1})
    ->Args({512, 1, 1, 8});

void
BM_Im2colNarrowScalar(benchmark::State &state)
{
    simd::ScopedForceIsa force(simd::SimdIsa::Scalar);
    im2colNarrow(state);
}
DLIS_BENCHMARK(BM_Im2colNarrowScalar)
    ->Name("BM_Im2colScalar")
    ->Args({256, 2, 3, 1})
    ->Args({128, 4, 3, 1})
    ->Args({512, 1, 1, 8});

/**
 * The whole im2col+GEMM conv path at steady state: a persistent
 * arena (as every ExecContext now owns) serves the column and tile
 * buffers, so after the first iteration warms it the loop performs
 * zero heap allocations — the allocation-churn fix this measures.
 */
void
BM_ConvIm2colGemmSteadyState(benchmark::State &state)
{
    const size_t c = static_cast<size_t>(state.range(0));
    ConvParams p{1, c, 32, 32, c, 3, 3, 1, 1};
    Tensor in = randomTensor(Shape{1, c, 32, 32}, 16);
    Tensor w = randomTensor(Shape{c, c, 3, 3}, 17);
    Tensor out(Shape{1, c, 32, 32});

    ScratchArena arena;
    KernelPolicy pol{1};
    pol.arena = &arena;

    const size_t m = p.cout;
    const size_t k = p.cin * p.kh * p.kw;
    const size_t n = p.hout() * p.wout();
    for (auto _ : state) {
        ScratchArena::Scope scope(arena);
        float *cols = arena.allocFloats(k * n);
        kernels::im2col(p, in.data(), cols);
        kernels::gemmBlocked(w.data(), cols, out.data(), m, k, n, pol);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * p.macs()));
    state.counters["arenaKB"] =
        static_cast<double>(arena.capacityBytes()) / 1024.0;
}
DLIS_BENCHMARK(BM_ConvIm2colGemmSteadyState)->Arg(16)->Arg(32)->Arg(64);

} // namespace
} // namespace dlis

/**
 * Custom main (instead of BENCHMARK_MAIN) so the emitted JSON records
 * which ISA the dispatcher resolved — scalar-vs-dispatched ratios are
 * only meaningful against the right baseline, and the comparison
 * script refuses to diff results from different ISAs.
 */
int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::AddCustomContext(
        "simd_isa", dlis::simd::isaName(dlis::simd::activeIsa()));
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

/**
 * @file
 * Dense GEMM kernels: naive reference and cache-blocked.
 *
 * The blocked kernel runs every im2col+GEMM conv; the naive kernel is
 * the reference every other path is checked against in the tests.
 */

#ifndef DLIS_BACKEND_GEMM_HPP
#define DLIS_BACKEND_GEMM_HPP

#include <cstddef>

#include "backend/conv_params.hpp"
#include "backend/im2col.hpp"

namespace dlis::kernels {

/**
 * @name GEMM blocking factors.
 * Exported so the static memory estimate (analysis/memory_estimate)
 * can mirror the per-thread C-tile workspace gemmBlocked draws from
 * the scratch arena. kGemmTileN also bounds im2col batch folding:
 * Conv2d puts just enough images into one GEMM for N to reach one
 * column tile (kernels::im2colGroupImages).
 */
/** @{ */
inline constexpr size_t kGemmTileM = 32;
inline constexpr size_t kGemmTileN = 64;
inline constexpr size_t kGemmTileK = 64;
/** @} */

/**
 * Reference GEMM: C = A * B (+ C if accumulate).
 *
 * @param a  row-major [m, k]
 * @param b  row-major [k, n]
 * @param c  row-major [m, n]
 */
void gemmNaive(const float *a, const float *b, float *c, size_t m,
               size_t k, size_t n, bool accumulate = false);

/**
 * What an im2col+GEMM conv adds to one gemmBlocked call; the default
 * adds nothing.
 */
struct GemmConvFusion
{
    /**
     * When set, the GEMM's own team packs this group's columns into B
     * (b must be packB->cols) before the tile loop: a static split of
     * packB->tasks() over the team, then the region's barrier. No
     * second parallel region is opened.
     */
    const Im2colGroup *packB = nullptr;
    /**
     * When nonzero, C is n / imageCols consecutive row-major
     * [m, imageCols] matrices — the NCHW output planes of a folded
     * image group — so element (i, j) is stored at
     * c[(j / imageCols)*m*imageCols + i*imageCols + j % imageCols].
     * 0 means one row-major [m, n] matrix.
     */
    size_t imageCols = 0;
    /**
     * Per-row (output channel) bias, or null. Each element's final
     * value is (acc + bias[i]) rounded, then epilogue.apply(·, i),
     * computed on the accumulator as the last k block is stored.
     */
    const float *bias = nullptr;
    ConvEpilogue epilogue{}; //!< indexed by row (output channel)
};

/**
 * Cache-blocked GEMM: C = A * B, tiled MC/KC/NC, serial or on the team over
 * the flattened (row tile, column tile) grid, in at most one parallel
 * region. Parallel runs accumulate into per-thread C tiles drawn from
 * the policy's scratch arena (a call-local arena when policy.arena is
 * null) and copy out once, so threads never share output cachelines
 * and the kernel heap-allocates nothing at steady state; the team is
 * clamped to the tile count. A single-threaded or single-tile call
 * accumulates directly into C and carves nothing, unless C is split
 * into image planes (fusion.imageCols < n), which needs one private
 * tile to copy out from. The inner tile loop dispatches through
 * simd::activeKernels() — the scalar ISA runs the reference loop
 * below, AVX2 runs register-tiled FMA micro-kernels. Per output
 * element the additions run in strictly ascending p order under every
 * ISA, making the result bit-identical across thread counts, tile
 * shapes, the element's column position and C's layout — which is
 * what lets Conv2d fold several images into N without changing a bit
 * (vector ISAs differ from scalar only by FMA's single rounding,
 * within the parity-test tolerances).
 *
 * @param fusion  in-region im2col pack, NCHW store and the conv's
 *                bias and epilogue (k must be > 0 when either is set)
 */
void gemmBlocked(const float *a, const float *b, float *c, size_t m,
                 size_t k, size_t n, const KernelPolicy &policy,
                 const GemmConvFusion &fusion = {});

/** C = A^T * B where A is row-major [k, m]; used by conv backward. */
void gemmAtB(const float *a, const float *b, float *c, size_t m,
             size_t k, size_t n, bool accumulate = false);

/** C = A * B^T where B is row-major [n, k]; used by conv backward. */
void gemmABt(const float *a, const float *b, float *c, size_t m,
             size_t k, size_t n, bool accumulate = false);

} // namespace dlis::kernels

#endif // DLIS_BACKEND_GEMM_HPP

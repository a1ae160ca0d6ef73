/**
 * @file
 * Runtime dispatch table for the SIMD micro-kernels.
 *
 * Each entry is an optional accelerated variant of one hot loop; a
 * null entry means "run the scalar reference loop at the call site".
 * The Scalar table is therefore all-null — the reference loops under
 * src/backend/ *are* the scalar implementation, so pinning
 * DLIS_FORCE_ISA=scalar reproduces the pre-SIMD binary exactly.
 *
 * Tail-handling contract (what keeps parity tests honest):
 *  - every variant accepts any size; lanes that do not fill a vector
 *    are handled *inside the variant*. On AVX2 the GEMM column
 *    remainder, the conv's leftover interior span and a depthwise
 *    block of fewer than eight planes are one masked 8-lane block
 *    (dead lanes neither read nor write memory); scalar std::fma
 *    tails remain only at conv pixel borders;
 *  - GEMM and conv variants may use FMA, but then their tails fuse
 *    too, so every element of a vector-ISA result is single-rounded
 *    and independent of which lane (full block, masked block or
 *    scalar tail) it landed in — batch-size invariance holds at
 *    tolerance 0;
 *  - per output element, floating-point additions run in the same
 *    ascending order as the reference loop (GEMM: ascending k;
 *    convs: the ci/ky/kx tap order, padding taps skipped rather than
 *    added as zero), so results stay deterministic across thread
 *    counts and tile shapes;
 *  - packed-ternary variants perform no reassociation or contraction
 *    at all and are bit-exact against the reference;
 *  - no variant may touch the heap: workspaces, if any, come from
 *    KernelPolicy::arena (none of the current variants need one);
 *  - buffers are not assumed aligned (the arena hands out 64-byte
 *    blocks, but tests deliberately mis-align them).
 *
 * Adding a micro-kernel: add a pointer here, implement it in
 * kernels_avx2.cpp (raw intrinsics are lint-confined to this
 * directory), fall back on null at the call site, and extend
 * tests/test_simd.cpp with tail/misalignment parity cases.
 */

#ifndef DLIS_BACKEND_SIMD_DISPATCH_HPP
#define DLIS_BACKEND_SIMD_DISPATCH_HPP

#include <cstddef>
#include <cstdint>

#include "backend/conv_params.hpp"
#include "backend/simd/isa.hpp"
#include "sparse/packed_ternary.hpp"

namespace dlis::simd {

/** Optional accelerated variants of the backend's hot loops. */
struct MicroKernels
{
    SimdIsa isa = SimdIsa::Scalar;

    /**
     * Accumulate one C tile: dst[i*ldc + j] += sum_p A[i*lda + p] *
     * B[p*ldb + j] for i < rows, j < cols, sweeping p in ascending
     * order in tileK-sized blocks (the accumulator round-trips
     * through dst between blocks, exactly like the reference loop in
     * gemmBlocked). The caller zeroes dst first. As the last block is
     * stored, row i's accumulator gets + bias[i] (when bias is set),
     * then epilogue.apply(·, i), each a separate rounding.
     */
    void (*gemmTile)(const float *a, size_t lda, const float *b,
                     size_t ldb, float *dst, size_t ldc, size_t rows,
                     size_t cols, size_t k, size_t tileK,
                     const float *bias,
                     const ConvEpilogue &epilogue) = nullptr;

    /**
     * One (image, output-channel) pair of a dense direct conv,
     * specialised for kh == kw == 3, stride == 1, any padding. Same
     * signature contract as denseConvOneChannel.
     */
    void (*conv3x3s1)(const ConvParams &p, const float *input,
                      const float *weight, const float *bias,
                      float *output, size_t img, size_t oc) = nullptr;

    /**
     * Planes [plane0, plane0 + planes) of a depthwise conv with
     * kh == kw == 3, any stride and padding, 1 <= planes <= 8. A plane
     * is one (image, channel) pair of the flattened n*C axis: plane q
     * is image q / C, channel q % C, at input + q*hin*win and
     * output + q*hout*wout, so a block may straddle two images. Each
     * plane's result is independent of the block it runs in, which
     * keeps batch invariance and thread-count identity exact. Lane
     * offsets are 32-bit: 8*hin*win and 9*C must fit in an int32_t.
     * Each lane's accumulator gets the epilogue of its channel before
     * it is stored.
     */
    void (*depthwise3x3)(const ConvParams &p, const float *input,
                         const float *weight, const float *bias,
                         const ConvEpilogue &epilogue, float *output,
                         size_t plane0, size_t planes) = nullptr;

    /**
     * One (image, output-channel) pair of a packed-ternary conv for
     * stride == 1: interior pixels are computed eight at a time so a
     * single decode() serves the whole block (ternary_decodes counts
     * actual decode calls and drops accordingly). Bit-exact against
     * packedTernaryConvOneChannel.
     */
    void (*ternaryConvS1)(const ConvParams &p, const float *input,
                          const PackedTernary &weight,
                          const float *bias, float *output, size_t img,
                          size_t oc,
                          obs::Counter *decodeCounter) = nullptr;
};

/**
 * The table for @p isa. Fatal when the binary was built without that
 * ISA's translation unit (callers gate on isaSupported()).
 */
const MicroKernels &kernelsFor(SimdIsa isa);

/**
 * The process-wide table: kernelsFor(activeIsa()), resolved on first
 * use. Call sites consult this on every kernel invocation (one
 * relaxed atomic load), which is what lets ScopedForceIsa re-point it
 * for in-process scalar-vs-vector comparisons.
 */
const MicroKernels &activeKernels();

/**
 * Test hook: pin activeKernels() to @p isa for this scope, restoring
 * the previous table on destruction. Not thread-safe — construct only
 * while no kernels run concurrently (tests and benches are
 * single-threaded at the point of the swap).
 */
class ScopedForceIsa
{
  public:
    explicit ScopedForceIsa(SimdIsa isa);
    ~ScopedForceIsa();

    ScopedForceIsa(const ScopedForceIsa &) = delete;
    ScopedForceIsa &operator=(const ScopedForceIsa &) = delete;

  private:
    const MicroKernels *prev_;
};

} // namespace dlis::simd

#endif // DLIS_BACKEND_SIMD_DISPATCH_HPP

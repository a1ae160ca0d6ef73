/**
 * @file
 * Internal linkage between the dispatch table and the AVX2
 * translation unit. That TU is compiled with its own -m flags (see
 * src/backend/CMakeLists.txt) and returns null when the build target
 * cannot emit its instructions, so the same source tree links into a
 * generic binary on every architecture.
 */

#ifndef DLIS_BACKEND_SIMD_KERNELS_HPP
#define DLIS_BACKEND_SIMD_KERNELS_HPP

namespace dlis::simd {

struct MicroKernels;

/** AVX2+FMA table; null when not compiled for x86. */
const MicroKernels *avx2MicroKernels();

} // namespace dlis::simd

#endif // DLIS_BACKEND_SIMD_KERNELS_HPP

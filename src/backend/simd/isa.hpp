/**
 * @file
 * CPU instruction-set probe for the SIMD micro-kernel dispatch layer.
 *
 * The probe runs once per process (compiler builtins on x86; every
 * other host runs the scalar reference loops) and can be pinned for
 * testing with the DLIS_FORCE_ISA environment variable ("scalar",
 * "avx2"). Forcing an ISA the host cannot execute is a fatal
 * configuration error, except "scalar", which every host supports.
 */

#ifndef DLIS_BACKEND_SIMD_ISA_HPP
#define DLIS_BACKEND_SIMD_ISA_HPP

namespace dlis::simd {

/** Instruction sets the dispatcher can select between. */
enum class SimdIsa
{
    Scalar, //!< reference C++ loops (always available)
    Avx2,   //!< x86-64 AVX2 + FMA, 8-lane float vectors
};

/** Stable lowercase name ("scalar", "avx2"). */
const char *isaName(SimdIsa isa);

/**
 * Parse an isaName() back to the enum. @p ok reports success; on
 * failure the return value is SimdIsa::Scalar.
 */
SimdIsa parseIsaName(const char *name, bool &ok);

/** True when this host can execute @p isa's instructions. */
bool isaSupported(SimdIsa isa);

/**
 * The widest ISA this host supports, ignoring any DLIS_FORCE_ISA
 * override: AVX2+FMA when x86 cpuid (via compiler builtins) reports
 * both, else Scalar.
 */
SimdIsa bestSupportedIsa();

/**
 * The ISA the dispatcher resolved for this process: DLIS_FORCE_ISA
 * when set (fatal if unparseable or unsupported on this host),
 * otherwise bestSupportedIsa(). Resolved once; later env changes have
 * no effect.
 */
SimdIsa activeIsa();

} // namespace dlis::simd

#endif // DLIS_BACKEND_SIMD_ISA_HPP

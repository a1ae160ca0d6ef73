#include "backend/simd/isa.hpp"

#include <cstdlib>
#include <string>

#include "core/error.hpp"
#include "core/logging.hpp"

namespace dlis::simd {

const char *
isaName(SimdIsa isa)
{
    switch (isa) {
    case SimdIsa::Scalar:
        return "scalar";
    case SimdIsa::Avx2:
        return "avx2";
    }
    return "scalar";
}

SimdIsa
parseIsaName(const char *name, bool &ok)
{
    const std::string s = name ? name : "";
    ok = true;
    if (s == "scalar")
        return SimdIsa::Scalar;
    if (s == "avx2")
        return SimdIsa::Avx2;
    ok = false;
    return SimdIsa::Scalar;
}

bool
isaSupported(SimdIsa isa)
{
    switch (isa) {
    case SimdIsa::Scalar:
        return true;
    case SimdIsa::Avx2:
#if defined(__x86_64__) || defined(__i386__)
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx2") &&
               __builtin_cpu_supports("fma");
#else
        return false;
#endif
    }
    return false;
}

SimdIsa
bestSupportedIsa()
{
    return isaSupported(SimdIsa::Avx2) ? SimdIsa::Avx2 : SimdIsa::Scalar;
}

namespace {

SimdIsa
resolveIsa()
{
    if (const char *env = std::getenv("DLIS_FORCE_ISA")) {
        bool ok = false;
        const SimdIsa forced = parseIsaName(env, ok);
        DLIS_CHECK(ok, "DLIS_FORCE_ISA=", env,
                   " is not an ISA name (scalar|avx2)");
        DLIS_CHECK(isaSupported(forced), "DLIS_FORCE_ISA=", env,
                   " requests instructions this host cannot execute");
        inform("simd: dispatch pinned to ", isaName(forced),
               " by DLIS_FORCE_ISA");
        return forced;
    }
    return bestSupportedIsa();
}

} // namespace

SimdIsa
activeIsa()
{
    static const SimdIsa isa = resolveIsa();
    return isa;
}

} // namespace dlis::simd

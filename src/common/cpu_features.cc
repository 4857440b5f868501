#include "common/cpu_features.h"

namespace crophe {

namespace {

CpuFeatures
detect()
{
    CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    f.avx2 = __builtin_cpu_supports("avx2") != 0;
    // The AVX-512 kernels use foundation ops plus the DQ 64-bit multiply
    // and conversions; both must be present.
    f.avx512 = __builtin_cpu_supports("avx512f") != 0 &&
               __builtin_cpu_supports("avx512dq") != 0;
    f.avx512ifma = f.avx512 && __builtin_cpu_supports("avx512ifma") != 0;
#endif
    return f;
}

}  // namespace

const CpuFeatures &
cpuFeatures()
{
    static const CpuFeatures features = detect();
    return features;
}

}  // namespace crophe

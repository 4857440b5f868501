#ifndef CROPHE_COMMON_CPU_FEATURES_H_
#define CROPHE_COMMON_CPU_FEATURES_H_

/**
 * @file
 * Runtime CPU feature detection for the kernel dispatcher.
 *
 * The vectorized FHE kernels (fhe/kernels, DESIGN.md §10) are compiled
 * per-ISA and selected at runtime, so a single portable binary runs on
 * any x86-64 machine and automatically uses the widest vector unit the
 * host offers. Detection goes through the compiler's cpuid builtins,
 * which also account for OS-level state saving (XSAVE), so a kernel is
 * only reported available when it can actually execute.
 */

namespace crophe {

/** Host vector-ISA capabilities, queried once and cached. */
struct CpuFeatures
{
    bool avx2 = false;    ///< AVX2 (256-bit integer ops)
    bool avx512 = false;  ///< AVX-512 F+DQ (512-bit ops + 64-bit mullo)
    /// AVX-512 IFMA (CPUID 7.0:EBX[21], 52-bit multiply-accumulate) on
    /// top of avx512
    bool avx512ifma = false;
};

/** The host's capabilities; the cpuid query runs once per process. */
const CpuFeatures &cpuFeatures();

}  // namespace crophe

#endif  // CROPHE_COMMON_CPU_FEATURES_H_

#ifndef CROPHE_COMMON_COMMON_FLAGS_H_
#define CROPHE_COMMON_COMMON_FLAGS_H_

/**
 * @file
 * The flag set shared by every CROPHE harness.
 *
 * The example drivers and benchmarks all accept some subset of
 * `--threads/--stats-out/--trace-out/--plan-cache/--kernel/--seed`, and
 * each used to register (and validate) its subset by hand. CommonFlags
 * centralizes the registrations, the defaults (plan-cache directory from
 * $CROPHE_PLAN_CACHE, seed 42) and the post-parse application — notably
 * `--kernel`, which is parsed once into the typed kernels::Backend enum
 * and rejected with a RecoverableError on an unknown spelling instead of
 * being threaded around as a string.
 *
 * Usage:
 *     cli::FlagParser parser("...");
 *     cli::CommonFlags common;
 *     common.registerInto(parser, cli::CommonFlags::kThreads |
 *                                     cli::CommonFlags::kStatsOut);
 *     ...                       // binary-specific flags
 *     if (!parser.parse(argc, argv)) return 1;
 *     common.apply();           // throws RecoverableError on bad --kernel
 */

#include <string>

#include "common/cli.h"
#include "common/types.h"

namespace crophe::cli {

/** Registration + post-parse application of the shared harness flags. */
struct CommonFlags
{
    /** Which of the shared flags a binary actually implements. */
    enum Want : u32
    {
        kThreads = 1u << 0,    ///< --threads N (thread-pool size)
        kStatsOut = 1u << 1,   ///< --stats-out FILE (JSON stats dump)
        kTraceOut = 1u << 2,   ///< --trace-out FILE (event trace)
        kPlanCache = 1u << 3,  ///< --plan-cache DIR (schedule cache)
        kKernel = 1u << 4,     ///< --kernel B (kernels::parseBackend)
        kSeed = 1u << 5,       ///< --seed N (workload RNG seed)
    };

    std::string statsOut;      ///< empty: no stats dump
    std::string traceOut;      ///< empty: no trace
    std::string planCacheDir;  ///< defaulted from $CROPHE_PLAN_CACHE
    std::string kernelName;    ///< raw spelling; typed by apply()
    u32 seed = 42;

    /** Register the flags selected by @p want (a Want bitmask). */
    void registerInto(FlagParser &parser, u32 want);

    /**
     * Apply parsed values that carry process-wide effects. Today that is
     * `--kernel`: the spelling is parsed into kernels::Backend (throwing
     * RecoverableError on an unknown name) and the backend is selected,
     * falling back with a one-time warning when the CPU lacks it.
     */
    void apply() const;
};

}  // namespace crophe::cli

#endif  // CROPHE_COMMON_COMMON_FLAGS_H_

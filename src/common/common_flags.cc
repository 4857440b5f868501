#include "common/common_flags.h"

#include "fhe/kernels/kernels.h"
#include "plan/plan_cache.h"

namespace crophe::cli {

void
CommonFlags::registerInto(FlagParser &parser, u32 want)
{
    if (want & kThreads)
        parser.addThreadsFlag();
    if (want & kStatsOut)
        parser.addString("--stats-out", "FILE", &statsOut,
                         "dump the telemetry registry as JSON to FILE");
    if (want & kTraceOut)
        parser.addString("--trace-out", "FILE", &traceOut,
                         "write the event trace as JSON to FILE");
    if (want & kPlanCache) {
        planCacheDir = plan::PlanCache::dirFromEnv();
        parser.addString("--plan-cache", "DIR", &planCacheDir,
                         "schedule-cache directory "
                         "(default $CROPHE_PLAN_CACHE)");
    }
    if (want & kKernel)
        parser.addString("--kernel", "NAME", &kernelName,
                         "kernel backend: "
                         "scalar|avx2|avx512|avx512ifma|auto "
                         "(default $CROPHE_KERNEL or the most preferred "
                         "available)");
    if (want & kSeed)
        parser.addUint("--seed", &seed, "workload RNG seed");
}

void
CommonFlags::apply() const
{
    if (!kernelName.empty())
        fhe::kernels::requestBackend(fhe::kernels::parseBackend(kernelName));
}

}  // namespace crophe::cli

#ifndef CROPHE_SCHED_HYBRID_ROTATION_H_
#define CROPHE_SCHED_HYBRID_ROTATION_H_

/**
 * @file
 * Rotation-scheme × key-switch-dataflow search (Sections V-C, V-D and
 * DESIGN.md §15).
 *
 * Both knobs change the workload graph itself (coarse Min-KS chain + fine
 * hoisted steps; fused vs CiFlow-reordered key-switch pipelines), so the
 * scheduler enumerates them "at the very beginning": one workload graph
 * is generated per (rotation scheme, ks dataflow) candidate and each is
 * scheduled independently; the cheapest wins. The candidate list is
 * fixed: Hybrid (r_hyb in rHybCandidates(), only when the design allows
 * it) and TripleHoisted, each crossed with the three ks dataflows. Min-KS
 * and Hoisting never won a Fig 9/10/11 search, so they are not searched;
 * they stay graph builders (Hybrid is built from them, MAD uses Min-KS).
 */

#include <string>
#include <vector>

#include "graph/workloads.h"
#include "sched/cost_model.h"
#include "sched/group.h"

namespace crophe::sched {

/** Outcome of the rotation-scheme search. */
struct RotationChoice
{
    graph::RotMode mode = graph::RotMode::MinKs;
    u32 rHyb = 0;
    graph::KsDataflow ksDataflow = graph::KsDataflow::Fused;
    WorkloadResult result;
};

/** Candidate r_hyb values (powers of two up to a sane baby-step bound). */
std::vector<u32> rHybCandidates(u32 n1_max = 16);

/**
 * Build the workload named @p workload for every (rotation scheme,
 * key-switch dataflow) candidate (Hybrid only if @p allow_hybrid) and
 * return the fastest on @p cfg. Ties resolve first-wins in candidate
 * order (Fused before the CiFlow dataflows within each scheme).
 */
RotationChoice chooseRotationScheme(const std::string &workload,
                                    const graph::FheParams &params,
                                    const hw::HwConfig &cfg,
                                    const SchedOptions &opt,
                                    bool allow_hybrid);

}  // namespace crophe::sched

#endif  // CROPHE_SCHED_HYBRID_ROTATION_H_

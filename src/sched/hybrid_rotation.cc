#include "sched/hybrid_rotation.h"

#include <limits>
#include <memory>

#include "common/parallel.h"
#include "sched/enumerator.h"
#include "sched/scheduler.h"
#include "telemetry/search_telemetry.h"

namespace crophe::sched {

std::vector<u32>
rHybCandidates(u32 n1_max)
{
    std::vector<u32> out;
    for (u32 r = 2; r <= n1_max; r <<= 1)
        out.push_back(r);
    return out;
}

namespace {

/** Search-label spelling of a rotation candidate. */
std::string
rotLabel(graph::RotMode mode, u32 r_hyb)
{
    switch (mode) {
      case graph::RotMode::MinKs: return "minks";
      case graph::RotMode::Hoisting: return "hoisting";
      case graph::RotMode::Hybrid:
        return "hybrid r=" + std::to_string(r_hyb);
      case graph::RotMode::TripleHoisted: return "triple";
    }
    return "?";
}

}  // namespace

RotationChoice
chooseRotationScheme(const std::string &workload,
                     const graph::FheParams &params, const hw::HwConfig &cfg,
                     const SchedOptions &opt, bool allow_hybrid)
{
    RotationChoice best;
    best.result.stats.cycles = std::numeric_limits<double>::infinity();

    // The (rotation scheme × ks dataflow) candidates are independent
    // searches. Evaluate them in parallel into per-candidate slots, then
    // record telemetry and reduce on this thread in candidate order — the
    // sequential sweep's first-wins tie-breaking, bit for bit. Dataflows
    // iterate innermost with Fused first, so a tie keeps the fused graph.
    struct Candidate
    {
        graph::RotMode mode;
        u32 rHyb;
        graph::KsDataflow df;
    };
    std::vector<Candidate> cands;
    auto push_scheme = [&cands](graph::RotMode mode, u32 r) {
        for (graph::KsDataflow df :
             {graph::KsDataflow::Fused, graph::KsDataflow::OutputStationary,
              graph::KsDataflow::ReorderedModUp})
            cands.push_back({mode, r, df});
    };
    // Min-KS and Hoisting are not candidates: neither won any Fig 9/10/11
    // search (DESIGN.md §15).
    if (allow_hybrid)
        for (u32 r : rHybCandidates())
            push_scheme(graph::RotMode::Hybrid, r);
    push_scheme(graph::RotMode::TripleHoisted, 0);

    // Rotation candidates rebuild largely identical graphs (the compute
    // pipeline around the rotations is unchanged), so they share one
    // group memo unless the caller already scoped one wider.
    GroupMemo local_memo;
    SchedOptions sopt = opt;
    if (sopt.memo == nullptr)
        sopt.memo = &local_memo;

    std::vector<std::unique_ptr<WorkloadResult>> results(cands.size());
    parallelFor(0, cands.size(), [&](u64 i) {
        graph::WorkloadOptions wopt;
        wopt.rotMode = cands[i].mode;
        wopt.rHyb = cands[i].rHyb;
        wopt.ksDataflow = cands[i].df;
        graph::Workload w = graph::buildWorkload(workload, params, wopt);
        results[i] = std::make_unique<WorkloadResult>(
            scheduleWorkload(w, cfg, sopt));
    });

    for (u64 i = 0; i < cands.size(); ++i) {
        WorkloadResult &res = *results[i];
        if (opt.search != nullptr) {
            std::string label =
                "rot=" + rotLabel(cands[i].mode, cands[i].rHyb) +
                " ks=" + graph::ksDataflowName(cands[i].df);
            opt.search->recordCandidate(workload + "/" + label,
                                        res.stats.cycles);
        }
        if (res.stats.cycles < best.result.stats.cycles) {
            best.mode = cands[i].mode;
            best.rHyb = cands[i].rHyb;
            best.ksDataflow = cands[i].df;
            best.result = std::move(res);
        }
    }
    if (opt.search != nullptr)
        opt.search->recordChoice(workload, rotLabel(best.mode, best.rHyb),
                                 static_cast<u32>(best.mode),
                                 graph::ksDataflowName(best.ksDataflow),
                                 static_cast<u32>(best.ksDataflow));
    return best;
}

}  // namespace crophe::sched

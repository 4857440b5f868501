#include <gtest/gtest.h>

#include "graph/keyswitch_builder.h"
#include "map/mapper.h"
#include "map/trace.h"
#include "sched/ntt_decomp.h"

namespace crophe::map {
namespace {

using graph::Graph;
using graph::OpId;
using graph::OpKind;

sched::SpatialGroup
analyzedChain(const Graph &g, const hw::HwConfig &cfg)
{
    sched::SpatialGroup group;
    bool ok = sched::analyzeSpatialGroup(g, g.topoOrder(), cfg, false,
                                         group);
    EXPECT_TRUE(ok);
    return group;
}

TEST(Mapper, PlacementsStayOnTheArray)
{
    Graph g;
    OpId in = g.add(graph::makeInput(1 << 16, 24));
    OpId a = g.add(graph::makeEwBinary(OpKind::EwMul, 1 << 16, 24));
    OpId b = g.add(graph::makeEwBinary(OpKind::EwAdd, 1 << 16, 24));
    g.connect(in, a);
    g.connect(a, b);
    auto cfg = hw::configCrophe64();
    auto group = analyzedChain(g, cfg);
    GroupMapping m = mapGroup(group, g, cfg);

    ASSERT_EQ(m.placements.size(), group.allocs.size());
    for (const auto &p : m.placements)
        for (u32 pe : p.peIds)
            EXPECT_LT(pe, cfg.numPes);
    // Every internal edge has a positive hop distance.
    ASSERT_EQ(m.edgeHops.size(), group.internalEdges.size());
    for (u32 h : m.edgeHops)
        EXPECT_GE(h, 1u);
}

TEST(Mapper, TransposeFlipsPlacementDirection)
{
    // col-iNTT -> twiddle -> transpose -> row-iNTT: the row step must sit
    // on the right side of the array (Figure 4).
    Graph g;
    OpId col = g.add(graph::makeNttStep(OpKind::INttCol, 256, 256, 6));
    OpId tw = g.add(graph::makeTwiddle(1 << 16, 6));
    OpId tr = g.add(graph::makeTranspose(1 << 16, 6));
    OpId row = g.add(graph::makeNttStep(OpKind::INttRow, 256, 256, 6));
    g.connect(col, tw);
    g.connect(tw, tr);
    g.connect(tr, row);

    auto cfg = hw::configCrophe64();
    auto group = analyzedChain(g, cfg);
    GroupMapping m = mapGroup(group, g, cfg);

    double col_x = -1, row_x = -1;
    for (const auto &p : m.placements) {
        if (p.op == col)
            col_x = p.centroidX;
        if (p.op == row)
            row_x = p.centroidX;
    }
    ASSERT_GE(col_x, 0.0);
    ASSERT_GE(row_x, 0.0);
    EXPECT_GT(row_x, col_x);
}

TEST(Trace, ChunkTotalsMatchGroupAnalysis)
{
    graph::FheParams p = graph::paramsArk();
    Graph g;
    graph::buildKeySwitch(g, p, 10, graph::kNoOp, "evk");
    auto cfg = hw::configCrophe64();

    auto topo = g.topoOrder();
    std::vector<OpId> window(topo.begin(),
                             topo.begin() + std::min<std::size_t>(
                                                6, topo.size()));
    sched::SpatialGroup group;
    ASSERT_TRUE(sched::analyzeSpatialGroup(g, window, cfg, false, group));
    GroupMapping m = mapGroup(group, g, cfg);
    GroupTrace t = buildTrace(group, m, g, cfg);

    ASSERT_EQ(t.ops.size(), group.allocs.size());
    u64 sram = 0, dram = 0;
    for (const auto &top : t.ops) {
        EXPECT_GE(top.chunks, 1u);
        sram += top.sramWordsPerChunk * top.chunks;
        dram += top.dramWordsPerChunk * top.chunks;
    }
    // Apportioning rounds down per chunk; totals must be close.
    EXPECT_LE(sram, group.sramWords);
    EXPECT_LE(dram, group.dramWords);
    if (group.sramWords > 0) {
        EXPECT_GT(sram, group.sramWords / 2);
    }
}

TEST(Trace, PipelinedDepsAreMarked)
{
    Graph g;
    OpId in = g.add(graph::makeInput(1 << 16, 24));
    OpId a = g.add(graph::makeEwBinary(OpKind::EwMul, 1 << 16, 24));
    OpId ntt = g.add(graph::makeNtt(OpKind::Ntt, 1 << 16, 24));
    OpId bconv = g.add(graph::makeBConv(1 << 16, 24, 30));
    g.connect(in, a);
    g.connect(a, ntt);
    g.connect(ntt, bconv);

    auto cfg = hw::configCrophe64();
    sched::SpatialGroup group;
    ASSERT_TRUE(sched::analyzeSpatialGroup(g, g.topoOrder(), cfg, false,
                                           group));
    GroupMapping m = mapGroup(group, g, cfg);
    GroupTrace t = buildTrace(group, m, g, cfg);

    // bconv depends on ntt via a barrier (orientation switch); a on in is
    // pipelined.
    bool saw_pipelined = false, saw_barrier = false;
    for (const auto &top : t.ops) {
        for (const auto &dep : top.deps) {
            if (dep.pipelined)
                saw_pipelined = true;
            else
                saw_barrier = true;
        }
    }
    EXPECT_TRUE(saw_pipelined);
    EXPECT_TRUE(saw_barrier);
}

}  // namespace
}  // namespace crophe::map

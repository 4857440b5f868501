#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/parallel.h"
#include "graph/workloads.h"
#include "plan/serialize.h"
#include "sched/enumerator.h"
#include "sched/scheduler.h"

/**
 * @file
 * The enumerator hands out canonical memo entries by reference and
 * materializes only the windows a cover picks. These tests pin that the
 * shortcut is invisible: every window materializes to exactly what a
 * direct analysis of its ops gives, the memo counters do not depend on
 * whether the memo is private or shared, and schedules stay
 * byte-identical at any thread count.
 */

namespace crophe::sched {
namespace {

using graph::FheParams;
using graph::Graph;
using graph::OpId;

struct Case
{
    std::string name;
    Graph graph;
    hw::HwConfig cfg;
    bool mad;
    u32 maxOps;
};

/** Bootstrap and HELR segments plus a Min-KS BSGS matvec, on both
 *  CROPHE chips, in cross-op and MAD mode. */
std::vector<Case>
cases()
{
    struct Chip
    {
        std::string name;
        hw::HwConfig cfg;
        FheParams params;
    };
    const Chip chips[] = {
        {"crophe36", hw::configCrophe36(), graph::paramsSharp()},
        {"crophe64", hw::configCrophe64(), graph::paramsArk()},
    };
    std::vector<Case> out;
    for (const Chip &chip : chips) {
        std::vector<std::pair<std::string, Graph>> graphs;
        graphs.emplace_back(
            "bootstrap",
            graph::buildBootstrapping(chip.params, {}).segments[0].graph);
        graphs.emplace_back(
            "helr", graph::buildHelr(chip.params, {}).segments[0].graph);
        graphs.emplace_back(
            "matvec-minks",
            graph::buildPtMatVecMult(chip.params, 10, 8, 1,
                                     graph::RotMode::MinKs, 0));
        for (const auto &[name, g] : graphs) {
            out.push_back({chip.name + "/" + name, g, chip.cfg, false, 10});
            out.push_back({chip.name + "/" + name + "/mad", g, chip.cfg, true,
                           3});
        }
    }
    return out;
}

void
expectSameGroup(const SpatialGroup &a, const SpatialGroup &b,
                const std::string &where)
{
    SCOPED_TRACE(where);
    ASSERT_EQ(a.allocs.size(), b.allocs.size());
    for (std::size_t i = 0; i < a.allocs.size(); ++i) {
        EXPECT_EQ(a.allocs[i].op, b.allocs[i].op);
        EXPECT_EQ(a.allocs[i].pes, b.allocs[i].pes);
        EXPECT_EQ(a.allocs[i].chunks, b.allocs[i].chunks);
    }
    ASSERT_EQ(a.internalEdges.size(), b.internalEdges.size());
    for (std::size_t i = 0; i < a.internalEdges.size(); ++i) {
        const EdgePlan &x = a.internalEdges[i];
        const EdgePlan &y = b.internalEdges[i];
        EXPECT_EQ(x.from, y.from);
        EXPECT_EQ(x.to, y.to);
        EXPECT_EQ(x.mode, y.mode);
        EXPECT_EQ(x.volumeWords, y.volumeWords);
        EXPECT_EQ(x.granuleWords, y.granuleWords);
        EXPECT_EQ(x.bufferWords, y.bufferWords);
    }
    EXPECT_EQ(a.computeCycles, b.computeCycles);
    EXPECT_EQ(a.dramWords, b.dramWords);
    EXPECT_EQ(a.sramWords, b.sramWords);
    EXPECT_EQ(a.nocWords, b.nocWords);
    EXPECT_EQ(a.bufferWords, b.bufferWords);
    EXPECT_EQ(a.extWords, b.extWords);
    EXPECT_EQ(a.flops, b.flops);
    EXPECT_EQ(a.auxNeeds, b.auxNeeds);
    EXPECT_EQ(a.cycles, b.cycles);
}

TEST(EnumeratorEquivalence, MaterializedWindowsMatchDirectAnalysis)
{
    for (const Case &c : cases()) {
        SCOPED_TRACE(c.name);
        GroupEnumerator e(c.graph, c.cfg, c.mad, c.maxOps);
        const auto &topo = e.topo();
        u32 feasible = 0;
        for (u32 begin = 0; begin < topo.size(); ++begin) {
            for (u32 len = 1; len <= c.maxOps; ++len) {
                if (begin + len > topo.size()) {
                    EXPECT_EQ(e.window(begin, len), nullptr);
                    continue;
                }
                std::vector<OpId> ops(topo.begin() + begin,
                                      topo.begin() + begin + len);
                SpatialGroup direct;
                bool ok = analyzeSpatialGroup(c.graph, ops, c.cfg, c.mad,
                                              direct);
                const SpatialGroup *canonical = e.window(begin, len);
                std::string where = "window " + std::to_string(begin) +
                                    "+" + std::to_string(len);
                ASSERT_EQ(canonical != nullptr, ok) << where;
                if (!ok)
                    continue;
                ++feasible;
                // The canonical entry names window positions.
                for (const OpAlloc &a : canonical->allocs)
                    EXPECT_LT(a.op, len) << where;
                EXPECT_EQ(canonical->cycles, direct.cycles) << where;
                expectSameGroup(e.materialize(begin, len), direct, where);
            }
        }
        EXPECT_GT(feasible, 0u);
        EXPECT_GT(e.memoHits(), 0u);
    }
}

TEST(EnumeratorEquivalence, SharedMemoCountsMatchPrivateMemo)
{
    for (const Case &c : cases()) {
        SCOPED_TRACE(c.name);
        const u32 n = c.graph.size();
        auto visit = [&](GroupEnumerator &e) {
            for (u32 begin = 0; begin < n; ++begin)
                for (u32 len = 1; len <= c.maxOps; ++len)
                    e.window(begin, len);
        };
        GroupEnumerator own(c.graph, c.cfg, c.mad, c.maxOps);
        visit(own);

        GroupMemo memo;
        GroupEnumerator first(c.graph, c.cfg, c.mad, c.maxOps, &memo);
        visit(first);
        EXPECT_EQ(first.analyzedCount(), own.analyzedCount());
        EXPECT_EQ(first.memoHits(), own.memoHits());
        EXPECT_EQ(memo.size(), own.analyzedCount());

        // A second enumerator over the same memo analyzes nothing.
        GroupEnumerator second(c.graph, c.cfg, c.mad, c.maxOps, &memo);
        visit(second);
        EXPECT_EQ(second.analyzedCount(), 0u);
        EXPECT_EQ(second.memoHits(),
                  own.analyzedCount() + own.memoHits());
    }
}

class EnumeratorThreads : public ::testing::Test
{
  protected:
    void TearDown() override { ThreadPool::setGlobalThreads(0); }
};

TEST_F(EnumeratorThreads, BootstrapScheduleIsByteIdentical)
{
    // Segments are scheduled concurrently over one shared memo, so at
    // more than one thread memo inserts race; the bytes must not move.
    graph::Workload w =
        graph::buildBootstrapping(graph::paramsSharp(), {});
    const hw::HwConfig cfg = hw::configCrophe36();
    std::vector<u8> reference;
    for (u32 threads : {1u, 2u, 8u}) {
        ThreadPool::setGlobalThreads(threads);
        GroupMemo memo;
        SchedOptions opt;
        opt.memo = &memo;
        std::vector<std::vector<u8>> bytes(w.segments.size());
        parallelFor(0, w.segments.size(), [&](u64 i) {
            bytes[i] = plan::scheduleBytes(
                scheduleGraph(w.segments[i].graph, cfg, opt));
        });
        std::vector<u8> all;
        for (const auto &b : bytes)
            all.insert(all.end(), b.begin(), b.end());
        if (threads == 1)
            reference = all;
        else
            EXPECT_EQ(all, reference) << threads << " threads";
    }
    EXPECT_FALSE(reference.empty());
}

}  // namespace
}  // namespace crophe::sched

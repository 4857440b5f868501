#include <gtest/gtest.h>

#include "graph/graph.h"

namespace crophe::graph {
namespace {

Graph
diamond()
{
    Graph g;
    OpId in = g.add(makeInput(1 << 10, 4));
    OpId l = g.add(makeEwBinary(OpKind::EwMul, 1 << 10, 4));
    OpId r = g.add(makeEwBinary(OpKind::EwAdd, 1 << 10, 4));
    OpId out = g.add(makeOutput(1 << 10, 4));
    g.connect(in, l);
    g.connect(in, r);
    g.connect(l, out);
    g.connect(r, out);
    return g;
}

TEST(Graph, TopoOrderRespectsEdges)
{
    Graph g = diamond();
    auto order = g.topoOrder();
    ASSERT_EQ(order.size(), 4u);
    std::vector<u32> pos(4);
    for (u32 i = 0; i < 4; ++i)
        pos[order[i]] = i;
    EXPECT_LT(pos[0], pos[1]);
    EXPECT_LT(pos[0], pos[2]);
    EXPECT_LT(pos[1], pos[3]);
    EXPECT_LT(pos[2], pos[3]);
}

TEST(GraphDeath, CycleIsDetected)
{
    Graph g;
    OpId a = g.add(makeEwBinary(OpKind::EwAdd, 16, 1));
    OpId b = g.add(makeEwBinary(OpKind::EwAdd, 16, 1));
    g.connect(a, b);
    g.connect(b, a);
    EXPECT_DEATH(g.topoOrder(), "cycle");
}

TEST(Graph, TotalFlopsSums)
{
    Graph g = diamond();
    EXPECT_EQ(g.totalFlops(), 2ull * 4 * (1 << 10));
}

TEST(Graph, AuxDeduplicatedByKey)
{
    Graph g;
    OpId a = g.add(makeEwMulPlain(1 << 10, 4, "ptx:shared"));
    OpId b = g.add(makeEwMulPlain(1 << 10, 4, "ptx:shared"));
    OpId c = g.add(makeEwMulPlain(1 << 10, 4, "ptx:other"));
    (void)a;
    (void)b;
    (void)c;
    // With OF-Limb, each distinct plaintext key contributes N words.
    EXPECT_EQ(g.totalAuxWords(), 2ull * (1 << 10));
}

TEST(Graph, PartitionCoversAllNodes)
{
    Graph g = diamond();
    auto parts = g.partition(3);
    u32 total = 0;
    for (const auto &p : parts) {
        EXPECT_LE(p.size(), 3u);
        total += static_cast<u32>(p.size());
    }
    EXPECT_EQ(total, g.size());
}

TEST(Graph, StructuralHashMatchesIsomorphicSubgraphs)
{
    // Two copies of the same chain inside one graph hash identically.
    Graph g;
    OpId a1 = g.add(makeEwBinary(OpKind::EwMul, 1 << 10, 4));
    OpId a2 = g.add(makeEwBinary(OpKind::EwAdd, 1 << 10, 4));
    g.connect(a1, a2);
    OpId b1 = g.add(makeEwBinary(OpKind::EwMul, 1 << 10, 4));
    OpId b2 = g.add(makeEwBinary(OpKind::EwAdd, 1 << 10, 4));
    g.connect(b1, b2);

    EXPECT_EQ(g.structuralHash({a1, a2}), g.structuralHash({b1, b2}));
    EXPECT_NE(g.structuralHash({a1, a2}), g.structuralHash({a2, a1}));
    // Different shape => different hash.
    Graph g2;
    OpId c1 = g2.add(makeEwBinary(OpKind::EwMul, 1 << 10, 8));
    OpId c2 = g2.add(makeEwBinary(OpKind::EwAdd, 1 << 10, 8));
    g2.connect(c1, c2);
    EXPECT_NE(g.structuralHash({a1, a2}), g2.structuralHash({c1, c2}));
}

/** A key-switch-like graph with aux keys, fan-out and a boundary. */
Graph
keyedGraph()
{
    Graph g;
    OpId in = g.add(makeInput(1 << 12, 6));
    OpId intt = g.add(makeNtt(OpKind::INtt, 1 << 12, 6));
    OpId bconv = g.add(makeBConv(1 << 12, 2, 8));
    OpId ntt = g.add(makeNtt(OpKind::Ntt, 1 << 12, 8));
    OpId ksk0 = g.add(makeKskInnerProd(1 << 12, 8, 3, "evk:rot5"));
    OpId ksk1 = g.add(makeKskInnerProd(1 << 12, 8, 3, "evk:rot5"));
    OpId ptx = g.add(makeEwMulPlain(1 << 12, 6, "ptx:diag0"));
    OpId add = g.add(makeEwBinary(OpKind::EwAdd, 1 << 12, 8));
    OpId out = g.add(makeOutput(1 << 12, 8));
    g.connect(in, intt);
    g.connect(in, ptx);
    g.connect(intt, bconv);
    g.connect(bconv, ntt);
    g.connect(ntt, ksk0);
    g.connect(ntt, ksk1);
    g.connect(ksk0, add);
    g.connect(ksk1, add);
    g.connect(ptx, add);
    g.connect(add, out);
    return g;
}

TEST(Graph, StructuralHashGoldenValues)
{
    // Plan-cache keys (CRPL files on disk) and the serve catalog are built
    // on structuralHash, so its values must never change silently. The
    // constants assume libstdc++'s std::hash<std::string> (auxKey is
    // hashed with it); another standard library yields other values.
    Graph g = keyedGraph();
    EXPECT_EQ(g.structuralHash(g.topoOrder()), 0xd8fc942d9d6fae4cull);
    EXPECT_EQ(g.structuralHash(g.topoOrderAuxAffinity()),
              0x6a1adea233ff20a0ull);
    // A sub-window: successors outside it hash as "external".
    EXPECT_EQ(g.structuralHash({2, 3, 4}), 0xf819c4552c7507a8ull);
    // A repeated node keeps its last position, as it always has (op 1's
    // edge to op 2 hashes position 2, not 0).
    EXPECT_EQ(g.structuralHash({2, 1, 2}), 0xb79e22dc7775fe93ull);
    EXPECT_EQ(g.structuralHash({}), 0x14650fb0739d0383ull);
}

TEST(Graph, WindowHashEqualsStructuralHashOfSlice)
{
    Graph g = keyedGraph();
    auto order = g.topoOrderAuxAffinity();
    std::vector<u32> pos(g.size());
    for (u32 i = 0; i < order.size(); ++i)
        pos[order[i]] = i;
    auto aux_hashes = g.auxKeyHashes();
    for (u32 first = 0; first < order.size(); ++first) {
        for (u32 count = 1; first + count <= order.size(); ++count) {
            std::vector<OpId> slice(order.begin() + first,
                                    order.begin() + first + count);
            EXPECT_EQ(g.windowHash(order.data() + first, count, pos, first,
                                   aux_hashes),
                      g.structuralHash(slice))
                << first << "+" << count;
        }
    }
}

TEST(Graph, ToStringMentionsEveryOp)
{
    Graph g = diamond();
    std::string s = g.toString();
    EXPECT_NE(s.find("EwMul"), std::string::npos);
    EXPECT_NE(s.find("EwAdd"), std::string::npos);
}

}  // namespace
}  // namespace crophe::graph

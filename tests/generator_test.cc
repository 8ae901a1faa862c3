#include "graph/generator.h"

#include <gtest/gtest.h>

namespace gpml {
namespace {

TEST(GeneratorTest, ChainShape) {
  PropertyGraph g = MakeChainGraph(5);
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 4u);
  // First node has out-degree 1, last has in-degree 1.
  EXPECT_EQ(g.adjacencies(g.FindNode("v0")).size(), 1u);
  EXPECT_EQ(g.adjacencies(g.FindNode("v4")).size(), 1u);
}

TEST(GeneratorTest, CycleShape) {
  PropertyGraph g = MakeCycleGraph(6);
  EXPECT_EQ(g.num_nodes(), 6u);
  EXPECT_EQ(g.num_edges(), 6u);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    EXPECT_EQ(g.adjacencies(n).size(), 2u);  // One out, one in.
  }
}

TEST(GeneratorTest, CompleteGraphShape) {
  PropertyGraph g = MakeCompleteGraph(5);
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 20u);  // n*(n-1).
}

TEST(GeneratorTest, DiamondChainShape) {
  PropertyGraph g = MakeDiamondChain(3);
  // Nodes: s0 + 3 per diamond; edges: 4 per diamond.
  EXPECT_EQ(g.num_nodes(), 10u);
  EXPECT_EQ(g.num_edges(), 12u);
  EXPECT_NE(g.FindNode("s3"), kInvalidId);
}

TEST(GeneratorTest, GridShape) {
  PropertyGraph g = MakeGridGraph(3, 4);
  EXPECT_EQ(g.num_nodes(), 12u);
  // Right edges: (w-1)*h = 8; down edges: w*(h-1) = 9.
  EXPECT_EQ(g.num_edges(), 17u);
}

TEST(GeneratorTest, FraudGraphRespectsOptions) {
  FraudGraphOptions opt;
  opt.num_accounts = 100;
  opt.transfers_per_account = 3;
  opt.num_cities = 5;
  PropertyGraph g = MakeFraudGraph(opt);
  auto label = [&g](const char* name) { return g.label_symbols().Find(name); };
  EXPECT_EQ(g.NodesWithLabel(label("Account")).size(), 100u);
  EXPECT_EQ(g.NodesWithLabel(label("City")).size(), 5u);
  EXPECT_EQ(g.EdgesWithLabel(label("Transfer")).size(), 300u);
  EXPECT_EQ(g.EdgesWithLabel(label("isLocatedIn")).size(), 100u);
  EXPECT_EQ(g.EdgesWithLabel(label("hasPhone")).size(), 100u);
}

TEST(GeneratorTest, FraudGraphDeterministicInSeed) {
  FraudGraphOptions opt;
  opt.num_accounts = 50;
  PropertyGraph g1 = MakeFraudGraph(opt);
  PropertyGraph g2 = MakeFraudGraph(opt);
  ASSERT_EQ(g1.num_edges(), g2.num_edges());
  for (EdgeId e = 0; e < g1.num_edges(); ++e) {
    EXPECT_EQ(g1.edge(e).u, g2.edge(e).u);
    EXPECT_EQ(g1.edge(e).v, g2.edge(e).v);
  }
}

TEST(GeneratorTest, RandomGraphDeterministicAndMixed) {
  PropertyGraph g1 = MakeRandomGraph(20, 40, 3, 0.3, 7);
  PropertyGraph g2 = MakeRandomGraph(20, 40, 3, 0.3, 7);
  EXPECT_EQ(g1.num_edges(), 40u);
  size_t undirected = 0;
  for (EdgeId e = 0; e < g1.num_edges(); ++e) {
    EXPECT_EQ(g1.edge(e).directed, g2.edge(e).directed);
    if (!g1.edge(e).directed) ++undirected;
  }
  EXPECT_GT(undirected, 0u);
  EXPECT_LT(undirected, 40u);
}

TEST(GeneratorTest, RandomGraphDiffersAcrossSeeds) {
  PropertyGraph g1 = MakeRandomGraph(20, 40, 3, 0.3, 7);
  PropertyGraph g2 = MakeRandomGraph(20, 40, 3, 0.3, 8);
  bool any_diff = false;
  for (EdgeId e = 0; e < g1.num_edges() && !any_diff; ++e) {
    any_diff = g1.edge(e).u != g2.edge(e).u || g1.edge(e).v != g2.edge(e).v;
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace gpml

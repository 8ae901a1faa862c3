#include "gql/graph_projection.h"

#include <gtest/gtest.h>

#include "eval/engine.h"
#include "graph/sample_graph.h"

namespace gpml {
namespace {

// E20 (§6.6): graph-shaped output — each path binding defines a subgraph.

class GraphProjectionTest : public ::testing::Test {
 protected:
  GraphProjectionTest() : g_(BuildPaperGraph()) {}

  PropertyGraph Project(const std::string& query) {
    Engine engine(g_);
    Result<MatchOutput> out = engine.Match(query);
    EXPECT_TRUE(out.ok()) << out.status();
    Result<PropertyGraph> projected = ProjectGraph(g_, *out);
    EXPECT_TRUE(projected.ok()) << projected.status();
    return std::move(*projected);
  }

  PropertyGraph g_;
};

TEST_F(GraphProjectionTest, SingleBindingSubgraph) {
  PropertyGraph sub = Project(
      "MATCH (a WHERE a.owner='Jay')-[e:Transfer]->(b)");
  EXPECT_EQ(sub.num_nodes(), 2u);
  EXPECT_EQ(sub.num_edges(), 1u);
  EXPECT_NE(sub.FindNode("a4"), kInvalidId);
  EXPECT_NE(sub.FindNode("a6"), kInvalidId);
  EXPECT_NE(sub.FindEdge("t4"), kInvalidId);
}

TEST_F(GraphProjectionTest, PropertiesAndLabelsCarryOver) {
  PropertyGraph sub = Project(
      "MATCH (a WHERE a.owner='Jay')-[e:Transfer]->(b)");
  const ElementView a4 = sub.node(sub.FindNode("a4"));
  EXPECT_TRUE(a4.HasLabel("Account"));
  EXPECT_EQ(a4.GetProperty("isBlocked"), Value::String("yes"));
  const ElementView t4 = sub.edge(sub.FindEdge("t4"));
  EXPECT_EQ(t4.GetProperty("amount"), Value::Int(10'000'000));
  EXPECT_TRUE(t4.directed);
}

TEST_F(GraphProjectionTest, UnionOfBindings) {
  // The §5.1 TRAIL query: union of all three trails covers the Transfer
  // subgraph reached between Dave and Aretha.
  PropertyGraph sub = Project(
      "MATCH TRAIL (a WHERE a.owner='Dave')-[t:Transfer]->*"
      "(b WHERE b.owner='Aretha')");
  // Nodes: a6,a3,a2,a5,a1. Edges: t5,t2,t6,t8,t1,t7.
  EXPECT_EQ(sub.num_nodes(), 5u);
  EXPECT_EQ(sub.num_edges(), 6u);
  EXPECT_EQ(sub.FindNode("a4"), kInvalidId) << "Jay is not on any trail";
}

TEST_F(GraphProjectionTest, EmptyResultYieldsEmptyGraph) {
  PropertyGraph sub = Project("MATCH (x:NoSuchLabel)");
  EXPECT_EQ(sub.num_nodes(), 0u);
  EXPECT_EQ(sub.num_edges(), 0u);
}

TEST_F(GraphProjectionTest, UndirectedEdgesPreserved) {
  PropertyGraph sub = Project("MATCH (a:Account)~[h:hasPhone]~(p:Phone)");
  EXPECT_EQ(sub.num_edges(), 6u);
  for (EdgeId e = 0; e < sub.num_edges(); ++e) {
    EXPECT_FALSE(sub.edge(e).directed);
  }
}

TEST_F(GraphProjectionTest, ProjectionIsQueryableAgain) {
  // Composability: run GPML over the projected graph (Figure 9's "new
  // graph" output feeding another MATCH).
  PropertyGraph sub = Project(
      "MATCH TRAIL (a WHERE a.owner='Dave')-[t:Transfer]->*"
      "(b WHERE b.owner='Aretha')");
  Engine engine(sub);
  Result<MatchOutput> out = engine.Match(
      "MATCH ANY SHORTEST (a WHERE a.owner='Dave')-[t:Transfer]->*"
      "(b WHERE b.owner='Aretha')");
  ASSERT_TRUE(out.ok()) << out.status();
  ASSERT_EQ(out->rows.size(), 1u);
  EXPECT_EQ(out->rows[0].bindings[0]->path.ToString(sub),
            "path(a6,t5,a3,t2,a2)");
}

}  // namespace
}  // namespace gpml

#include "graph/property_graph.h"

#include <gtest/gtest.h>

#include "gql/json_export.h"
#include "graph/graph_builder.h"

namespace gpml {
namespace {

Result<PropertyGraph> SmallGraph() {
  GraphBuilder b;
  b.AddNode("n1", {"A"}, {{"k", Value::Int(1)}});
  b.AddNode("n2", {"A", "B"});
  b.AddNode("n3", {});
  b.AddDirectedEdge("e1", "n1", "n2", {"X"}, {{"w", Value::Int(7)}});
  b.AddUndirectedEdge("e2", "n2", "n3", {"Y"});
  b.AddDirectedEdge("e3", "n3", "n3", {"X"});   // Directed self-loop.
  b.AddUndirectedEdge("e4", "n1", "n1", {"Y"}); // Undirected self-loop.
  return std::move(b).Build();
}

TEST(PropertyGraphTest, BasicCounts) {
  PropertyGraph g = std::move(SmallGraph()).value();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.Summary(), "3 nodes, 4 edges");
}

TEST(PropertyGraphTest, LookupByName) {
  PropertyGraph g = std::move(SmallGraph()).value();
  EXPECT_NE(g.FindNode("n1"), kInvalidId);
  EXPECT_EQ(g.FindNode("nope"), kInvalidId);
  EXPECT_NE(g.FindEdge("e2"), kInvalidId);
  EXPECT_EQ(g.FindEdge("zzz"), kInvalidId);
}

TEST(PropertyGraphTest, LabelsAreSortedAndSearchable) {
  PropertyGraph g = std::move(SmallGraph()).value();
  const ElementView n2 = g.node(g.FindNode("n2"));
  EXPECT_TRUE(n2.HasLabel("A"));
  EXPECT_TRUE(n2.HasLabel("B"));
  EXPECT_FALSE(n2.HasLabel("C"));
  const ElementView n3 = g.node(g.FindNode("n3"));
  EXPECT_TRUE(n3.labels().empty());
}

TEST(PropertyGraphTest, LabelIndex) {
  PropertyGraph g = std::move(SmallGraph()).value();
  EXPECT_EQ(g.NodesWithLabel(g.label_symbols().Find("A")).size(), 2u);
  EXPECT_EQ(g.NodesWithLabel(g.label_symbols().Find("B")).size(), 1u);
  EXPECT_TRUE(g.NodesWithLabel(g.label_symbols().Find("Z")).empty());
  EXPECT_EQ(g.EdgesWithLabel(g.label_symbols().Find("X")).size(), 2u);
  EXPECT_EQ(g.EdgesWithLabel(g.label_symbols().Find("Y")).size(), 2u);
}

TEST(PropertyGraphTest, PropertiesAndMissingProperty) {
  PropertyGraph g = std::move(SmallGraph()).value();
  const ElementView n1 = g.node(g.FindNode("n1"));
  EXPECT_EQ(n1.GetProperty("k"), Value::Int(1));
  EXPECT_TRUE(n1.GetProperty("missing").is_null());
  const ElementView e1 = g.edge(g.FindEdge("e1"));
  EXPECT_EQ(e1.GetProperty("w"), Value::Int(7));
}

TEST(PropertyGraphTest, DirectedAdjacency) {
  PropertyGraph g = std::move(SmallGraph()).value();
  NodeId n1 = g.FindNode("n1");
  NodeId n2 = g.FindNode("n2");
  // n1: forward e1, plus the undirected self-loop e4 (one record).
  int fwd = 0, bwd = 0, und = 0;
  for (const Adjacency& a : g.adjacencies(n1)) {
    if (a.traversal == Traversal::kForward) ++fwd;
    if (a.traversal == Traversal::kBackward) ++bwd;
    if (a.traversal == Traversal::kUndirected) ++und;
  }
  EXPECT_EQ(fwd, 1);
  EXPECT_EQ(bwd, 0);
  EXPECT_EQ(und, 1);
  // n2 sees e1 backward and e2 undirected.
  fwd = bwd = und = 0;
  for (const Adjacency& a : g.adjacencies(n2)) {
    if (a.traversal == Traversal::kForward) ++fwd;
    if (a.traversal == Traversal::kBackward) ++bwd;
    if (a.traversal == Traversal::kUndirected) ++und;
  }
  EXPECT_EQ(fwd, 0);
  EXPECT_EQ(bwd, 1);
  EXPECT_EQ(und, 1);
}

TEST(PropertyGraphTest, DirectedSelfLoopHasBothTraversals) {
  PropertyGraph g = std::move(SmallGraph()).value();
  NodeId n3 = g.FindNode("n3");
  int fwd = 0, bwd = 0;
  for (const Adjacency& a : g.adjacencies(n3)) {
    if (a.edge == g.FindEdge("e3")) {
      if (a.traversal == Traversal::kForward) ++fwd;
      if (a.traversal == Traversal::kBackward) ++bwd;
      EXPECT_EQ(a.neighbor, n3);
    }
  }
  EXPECT_EQ(fwd, 1);
  EXPECT_EQ(bwd, 1);
}

TEST(PropertyGraphTest, CrossSemantics) {
  PropertyGraph g = std::move(SmallGraph()).value();
  NodeId n1 = g.FindNode("n1");
  NodeId n2 = g.FindNode("n2");
  NodeId n3 = g.FindNode("n3");
  EdgeId e1 = g.FindEdge("e1");
  EdgeId e2 = g.FindEdge("e2");
  EXPECT_EQ(g.Cross(e1, n1, Traversal::kForward), n2);
  EXPECT_EQ(g.Cross(e1, n2, Traversal::kForward), kInvalidId);
  EXPECT_EQ(g.Cross(e1, n2, Traversal::kBackward), n1);
  EXPECT_EQ(g.Cross(e2, n2, Traversal::kUndirected), n3);
  EXPECT_EQ(g.Cross(e2, n3, Traversal::kUndirected), n2);
  EXPECT_EQ(g.Cross(e2, n2, Traversal::kForward), kInvalidId);
}

TEST(GraphBuilderTest, DuplicateNodeNameRejected) {
  GraphBuilder b;
  b.AddNode("x");
  b.AddNode("x");
  Result<PropertyGraph> g = std::move(b).Build();
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kAlreadyExists);
}

TEST(GraphBuilderTest, DanglingEdgeRejected) {
  GraphBuilder b;
  b.AddNode("x");
  b.AddDirectedEdge("e", "x", "ghost");
  Result<PropertyGraph> g = std::move(b).Build();
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kNotFound);
}

TEST(GraphBuilderTest, DuplicateLabelsDeduplicated) {
  GraphBuilder b;
  b.AddNode("x", {"A", "A", "B"});
  PropertyGraph g = std::move(std::move(b).Build()).value();
  EXPECT_EQ(g.node(0).labels(), (std::vector<std::string>{"A", "B"}));
}

TEST(PropertyGraphTest, ParallelEdgesAllowed) {
  GraphBuilder b;
  b.AddNode("u");
  b.AddNode("v");
  b.AddDirectedEdge("p1", "u", "v", {"T"});
  b.AddDirectedEdge("p2", "u", "v", {"T"});
  PropertyGraph g = std::move(std::move(b).Build()).value();
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.adjacencies(g.FindNode("u")).size(), 2u);
}

// The one store's build rules, observed through both the view and the
// element export.
TEST(GraphBuilderTest, NullValuedPropertyIsAbsent) {
  GraphBuilder b;
  b.AddNode("x", {"A"}, {{"k", Value::Null()}, {"m", Value::Int(2)}});
  b.AddDirectedEdge("e", "x", "x", {"T"}, {{"w", Value::Null()}});
  PropertyGraph g = std::move(b).Build().value();
  EXPECT_TRUE(g.node(0).GetProperty("k").is_null());
  EXPECT_EQ(g.node(0).properties(), (PropertyList{{"m", Value::Int(2)}}));
  EXPECT_EQ(ElementToJson(g, ElementRef::Node(0)),
            "{\"kind\":\"node\",\"name\":\"x\",\"labels\":[\"A\"],"
            "\"properties\":{\"m\":2}}");
  EXPECT_EQ(ElementToJson(g, ElementRef::Edge(0)),
            "{\"kind\":\"edge\",\"name\":\"e\",\"directed\":true,"
            "\"endpoints\":[\"x\",\"x\"],\"labels\":[\"T\"],"
            "\"properties\":{}}");
}

TEST(GraphBuilderTest, RepeatedKeyKeepsLastValue) {
  GraphBuilder b;
  b.AddNode("x", {"A"},
            {{"k", Value::Int(1)}, {"j", Value::Int(0)}, {"k", Value::Int(3)}});
  // A trailing NULL clears an earlier value: the last value is NULL, and a
  // NULL value is an absent property.
  b.AddNode("y", {"A"}, {{"k", Value::Int(1)}, {"k", Value::Null()}});
  PropertyGraph g = std::move(b).Build().value();
  EXPECT_EQ(g.node(0).GetProperty("k"), Value::Int(3));
  EXPECT_EQ(ElementToJson(g, ElementRef::Node(0)),
            "{\"kind\":\"node\",\"name\":\"x\",\"labels\":[\"A\"],"
            "\"properties\":{\"j\":0,\"k\":3}}");
  EXPECT_TRUE(g.node(1).GetProperty("k").is_null());
  EXPECT_EQ(ElementToJson(g, ElementRef::Node(1)),
            "{\"kind\":\"node\",\"name\":\"y\",\"labels\":[\"A\"],"
            "\"properties\":{}}");
  EXPECT_EQ(g.IndexedNodes("A", "k", Value::Int(3)),
            std::vector<NodeId>{0});
  EXPECT_TRUE(g.IndexedNodes("A", "k", Value::Int(1)).empty());
}

TEST(GraphBuilderTest, ExplicitEmptyLabelSetStaysEmpty) {
  GraphBuilder b;
  b.AddNode("x", {}, {{"k", Value::String("v")}});
  b.AddNode("y", {"A"});
  b.AddUndirectedEdge("e", "x", "y", {});
  PropertyGraph g = std::move(b).Build().value();
  EXPECT_TRUE(g.node(0).labels().empty());
  EXPECT_EQ(g.node(0).GetProperty("k"), Value::String("v"));
  EXPECT_EQ(ElementToJson(g, ElementRef::Node(0)),
            "{\"kind\":\"node\",\"name\":\"x\",\"labels\":[],"
            "\"properties\":{\"k\":\"v\"}}");
  EXPECT_EQ(ElementToJson(g, ElementRef::Edge(0)),
            "{\"kind\":\"edge\",\"name\":\"e\",\"directed\":false,"
            "\"endpoints\":[\"x\",\"y\"],\"labels\":[],"
            "\"properties\":{}}");
  // Label-less edges sit in the full range and in no label bucket.
  EXPECT_EQ(g.adjacencies(0).size(), 1u);
  EXPECT_TRUE(g.csr().Range(0, g.label_symbols().Find("A")).empty());
}

}  // namespace
}  // namespace gpml

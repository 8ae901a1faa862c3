#include "pgq/graph_view.h"

#include <gtest/gtest.h>

#include "graph/sample_graph.h"

namespace gpml {
namespace {

// E2: the Figure 2 tabular representation materializes into the Figure 1
// graph.

class GraphViewTest : public ::testing::Test {
 protected:
  GraphViewTest() {
    Result<GraphViewDef> def = InstallPaperTables(catalog_);
    EXPECT_TRUE(def.ok()) << def.status();
    def_ = *def;
  }
  Catalog catalog_;
  GraphViewDef def_;
};

TEST_F(GraphViewTest, TablesInstalled) {
  for (const char* t : {"Account", "Transfer", "Country", "CityCountry",
                        "Phone", "IP", "isLocatedIn", "hasPhone",
                        "signInWithIP"}) {
    EXPECT_TRUE(catalog_.HasTable(t)) << t;
  }
  EXPECT_EQ((*catalog_.GetTable("Account"))->num_rows(), 6u);
  EXPECT_EQ((*catalog_.GetTable("Transfer"))->num_rows(), 8u);
}

TEST_F(GraphViewTest, MaterializedViewEqualsFigureOneGraph) {
  Result<PropertyGraph> view = MaterializeGraphView(catalog_, def_);
  ASSERT_TRUE(view.ok()) << view.status();
  PropertyGraph direct = BuildPaperGraph();

  ASSERT_EQ(view->num_nodes(), direct.num_nodes());
  ASSERT_EQ(view->num_edges(), direct.num_edges());

  // Element-by-element comparison through external names.
  for (NodeId n = 0; n < direct.num_nodes(); ++n) {
    const ElementView want = direct.node(n);
    NodeId m = view->FindNode(want.name);
    ASSERT_NE(m, kInvalidId) << want.name;
    const ElementView got = view->node(m);
    EXPECT_EQ(got.labels(), want.labels()) << want.name;
    for (const auto& [prop, value] : want.properties()) {
      EXPECT_EQ(got.GetProperty(prop), value) << want.name << "." << prop;
    }
  }
  for (EdgeId e = 0; e < direct.num_edges(); ++e) {
    const ElementView want = direct.edge(e);
    EdgeId f = view->FindEdge(want.name);
    ASSERT_NE(f, kInvalidId) << want.name;
    const ElementView got = view->edge(f);
    EXPECT_EQ(got.directed, want.directed) << want.name;
    EXPECT_EQ(view->node(got.u).name, direct.node(want.u).name);
    EXPECT_EQ(view->node(got.v).name, direct.node(want.v).name);
    EXPECT_EQ(got.labels(), want.labels());
    for (const auto& [prop, value] : want.properties()) {
      EXPECT_EQ(got.GetProperty(prop), value) << want.name << "." << prop;
    }
  }
}

TEST_F(GraphViewTest, CityCountryTableYieldsBothLabels) {
  // Figure 2: one relation per label combination; CityCountry holds c2.
  Result<PropertyGraph> view = MaterializeGraphView(catalog_, def_);
  ASSERT_TRUE(view.ok());
  const ElementView c2 = view->node(view->FindNode("c2"));
  EXPECT_TRUE(c2.HasLabel("City"));
  EXPECT_TRUE(c2.HasLabel("Country"));
}

TEST_F(GraphViewTest, CreatePropertyGraphRegisters) {
  EXPECT_TRUE(CreatePropertyGraph(catalog_, def_).ok());
  EXPECT_TRUE(catalog_.HasGraph("paper_graph"));
  // Re-creating collides.
  EXPECT_EQ(CreatePropertyGraph(catalog_, def_).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(GraphViewTest, MissingTableIsError) {
  GraphViewDef bad = def_;
  bad.nodes.push_back({"Ghost", "ID", {"G"}, {}});
  EXPECT_EQ(MaterializeGraphView(catalog_, bad).status().code(),
            StatusCode::kNotFound);
}

TEST_F(GraphViewTest, MissingColumnIsError) {
  GraphViewDef bad = def_;
  bad.nodes[0].key_column = "NoSuchColumn";
  EXPECT_EQ(MaterializeGraphView(catalog_, bad).status().code(),
            StatusCode::kNotFound);
}

TEST_F(GraphViewTest, DanglingEdgeKeyIsError) {
  Catalog catalog;
  Table nodes{Schema({{"ID", ValueType::kString, false}})};
  ASSERT_TRUE(nodes.Append({Value::String("n1")}).ok());
  ASSERT_TRUE(catalog.AddTable("N", std::move(nodes)).ok());
  Table edges{Schema({{"ID", ValueType::kString, false},
                      {"SRC", ValueType::kString, false},
                      {"DST", ValueType::kString, false}})};
  ASSERT_TRUE(edges
                  .Append({Value::String("e1"), Value::String("n1"),
                           Value::String("ghost")})
                  .ok());
  ASSERT_TRUE(catalog.AddTable("E", std::move(edges)).ok());
  GraphViewDef def;
  def.name = "g";
  def.nodes = {{"N", "ID", {"N"}, {}}};
  def.edges = {{"E", "ID", "SRC", "DST", true, {"E"}, {}}};
  EXPECT_EQ(MaterializeGraphView(catalog, def).status().code(),
            StatusCode::kNotFound);
}

TEST_F(GraphViewTest, ExplicitPropertyColumnSelection) {
  GraphViewDef def = def_;
  def.nodes[0].property_columns = {"owner"};  // Drop isBlocked.
  Result<PropertyGraph> view = MaterializeGraphView(catalog_, def);
  ASSERT_TRUE(view.ok());
  const ElementView a1 = view->node(view->FindNode("a1"));
  EXPECT_FALSE(a1.GetProperty("owner").is_null());
  EXPECT_TRUE(a1.GetProperty("isBlocked").is_null());
}

}  // namespace
}  // namespace gpml

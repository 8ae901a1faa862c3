#include "graph/sample_graph.h"

#include <gtest/gtest.h>

namespace gpml {
namespace {

// E1 (DESIGN.md): the Figure 1 graph, pinned element by element.

class SampleGraphTest : public ::testing::Test {
 protected:
  SampleGraphTest() : g_(BuildPaperGraph()) {}
  PropertyGraph g_;
};

TEST_F(SampleGraphTest, Counts) {
  // 6 accounts + 2 places + 4 phones + 2 IPs = 14 nodes;
  // 8 transfers + 6 isLocatedIn + 6 hasPhone + 2 signInWithIP = 22 edges.
  EXPECT_EQ(g_.num_nodes(), 14u);
  EXPECT_EQ(g_.num_edges(), 22u);
}

TEST_F(SampleGraphTest, AccountOwnersAndBlockedFlags) {
  const char* owners[6] = {"Scott", "Aretha", "Mike", "Jay", "Charles",
                           "Dave"};
  for (int i = 0; i < 6; ++i) {
    NodeId n = g_.FindNode("a" + std::to_string(i + 1));
    ASSERT_NE(n, kInvalidId);
    const ElementView nd = g_.node(n);
    EXPECT_TRUE(nd.HasLabel("Account"));
    EXPECT_EQ(nd.GetProperty("owner"), Value::String(owners[i]));
    EXPECT_EQ(nd.GetProperty("isBlocked"),
              Value::String(i == 3 ? "yes" : "no"))
        << "only Jay (a4) is blocked";
  }
}

TEST_F(SampleGraphTest, PlaceNodes) {
  const ElementView c1 = g_.node(g_.FindNode("c1"));
  EXPECT_TRUE(c1.HasLabel("Country"));
  EXPECT_FALSE(c1.HasLabel("City"));
  EXPECT_EQ(c1.GetProperty("name"), Value::String("Zembla"));

  const ElementView c2 = g_.node(g_.FindNode("c2"));
  EXPECT_TRUE(c2.HasLabel("Country"));
  EXPECT_TRUE(c2.HasLabel("City"));
  EXPECT_EQ(c2.GetProperty("name"), Value::String("Ankh-Morpork"));
}

TEST_F(SampleGraphTest, TransferTopologyAndAmounts) {
  struct Row {
    const char* id;
    const char* from;
    const char* to;
    int64_t millions;
  };
  // Endpoints pinned by the worked examples of §5 and §6.
  const Row rows[8] = {
      {"t1", "a1", "a3", 8},  {"t2", "a3", "a2", 10}, {"t3", "a2", "a4", 10},
      {"t4", "a4", "a6", 10}, {"t5", "a6", "a3", 10}, {"t6", "a6", "a5", 4},
      {"t7", "a3", "a5", 6},  {"t8", "a5", "a1", 9}};
  for (const Row& r : rows) {
    EdgeId e = g_.FindEdge(r.id);
    ASSERT_NE(e, kInvalidId) << r.id;
    const ElementView ed = g_.edge(e);
    EXPECT_TRUE(ed.directed);
    EXPECT_TRUE(ed.HasLabel("Transfer"));
    EXPECT_EQ(ed.u, g_.FindNode(r.from)) << r.id;
    EXPECT_EQ(ed.v, g_.FindNode(r.to)) << r.id;
    EXPECT_EQ(ed.GetProperty("amount"), Value::Int(r.millions * 1'000'000))
        << r.id;
  }
}

TEST_F(SampleGraphTest, LocationEdges) {
  // a1,a3,a5 -> c1 (Zembla); a2,a4,a6 -> c2 (Ankh-Morpork); §6.4 table.
  for (int i = 1; i <= 6; ++i) {
    EdgeId e = g_.FindEdge("li" + std::to_string(i));
    ASSERT_NE(e, kInvalidId);
    const ElementView ed = g_.edge(e);
    EXPECT_TRUE(ed.HasLabel("isLocatedIn"));
    EXPECT_EQ(ed.u, g_.FindNode("a" + std::to_string(i)));
    EXPECT_EQ(ed.v, g_.FindNode(i % 2 == 1 ? "c1" : "c2"));
  }
}

TEST_F(SampleGraphTest, PhoneEdgesAreUndirected) {
  struct Row {
    const char* id;
    const char* account;
    const char* phone;
  };
  const Row rows[6] = {{"hp1", "a1", "p1"}, {"hp2", "a2", "p2"},
                       {"hp3", "a3", "p2"}, {"hp4", "a4", "p3"},
                       {"hp5", "a5", "p1"}, {"hp6", "a6", "p4"}};
  for (const Row& r : rows) {
    EdgeId e = g_.FindEdge(r.id);
    ASSERT_NE(e, kInvalidId);
    const ElementView ed = g_.edge(e);
    EXPECT_FALSE(ed.directed) << r.id;
    EXPECT_TRUE(ed.HasLabel("hasPhone"));
    EXPECT_EQ(ed.u, g_.FindNode(r.account));
    EXPECT_EQ(ed.v, g_.FindNode(r.phone));
  }
}

TEST_F(SampleGraphTest, SignInEdges) {
  const ElementView sip1 = g_.edge(g_.FindEdge("sip1"));
  EXPECT_EQ(sip1.u, g_.FindNode("a1"));
  EXPECT_EQ(sip1.v, g_.FindNode("ip1"));
  EXPECT_TRUE(sip1.HasLabel("signInWithIP"));
  const ElementView sip2 = g_.edge(g_.FindEdge("sip2"));
  EXPECT_EQ(sip2.u, g_.FindNode("a5"));
  EXPECT_EQ(sip2.v, g_.FindNode("ip2"));
}

TEST_F(SampleGraphTest, TransferCycleOfSection6Exists) {
  // (t4,t5,t2,t3): a4->a6->a3->a2->a4 — the loop the §6 example walks.
  EXPECT_EQ(g_.Cross(g_.FindEdge("t4"), g_.FindNode("a4"),
                     Traversal::kForward),
            g_.FindNode("a6"));
  EXPECT_EQ(g_.Cross(g_.FindEdge("t5"), g_.FindNode("a6"),
                     Traversal::kForward),
            g_.FindNode("a3"));
  EXPECT_EQ(g_.Cross(g_.FindEdge("t2"), g_.FindNode("a3"),
                     Traversal::kForward),
            g_.FindNode("a2"));
  EXPECT_EQ(g_.Cross(g_.FindEdge("t3"), g_.FindNode("a2"),
                     Traversal::kForward),
            g_.FindNode("a4"));
}

}  // namespace
}  // namespace gpml

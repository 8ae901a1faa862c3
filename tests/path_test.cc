#include "graph/path.h"

#include <gtest/gtest.h>

#include "graph/sample_graph.h"

namespace gpml {
namespace {

class PathTest : public ::testing::Test {
 protected:
  PathTest() : g_(BuildPaperGraph()) {}

  NodeId N(const std::string& name) { return g_.FindNode(name); }
  EdgeId E(const std::string& name) { return g_.FindEdge(name); }

  /// Builds a path from alternating node/edge names, inferring traversals.
  Path MakePath(const std::vector<std::string>& names) {
    Path p(N(names[0]));
    for (size_t i = 1; i + 1 < names.size(); i += 2) {
      EdgeId e = E(names[i]);
      NodeId to = N(names[i + 2 - 1]);
      const ElementView ed = g_.edge(e);
      Traversal t = Traversal::kUndirected;
      if (ed.directed) {
        t = (g_.Cross(e, p.End(), Traversal::kForward) == to)
                ? Traversal::kForward
                : Traversal::kBackward;
      }
      p.Append(e, t, to);
    }
    return p;
  }

  PropertyGraph g_;
};

TEST_F(PathTest, EmptyAndZeroLength) {
  Path empty;
  EXPECT_TRUE(empty.IsEmpty());
  Path zero(N("a1"));
  EXPECT_FALSE(zero.IsEmpty());
  EXPECT_EQ(zero.Length(), 0u);
  EXPECT_EQ(zero.Start(), zero.End());
  EXPECT_TRUE(zero.IsTrail());
  EXPECT_TRUE(zero.IsAcyclic());
  EXPECT_TRUE(zero.IsSimple());
}

TEST_F(PathTest, PaperSection2Path) {
  // path(c1,li1,a1,t1,a3,hp3,p2): li1 backwards, t1 forward, hp3 undirected.
  Path p = MakePath({"c1", "li1", "a1", "t1", "a3", "hp3", "p2"});
  EXPECT_EQ(p.Length(), 3u);
  EXPECT_EQ(p.ToString(g_), "path(c1,li1,a1,t1,a3,hp3,p2)");
  EXPECT_EQ(p.traversals()[0], Traversal::kBackward);
  EXPECT_EQ(p.traversals()[1], Traversal::kForward);
  EXPECT_EQ(p.traversals()[2], Traversal::kUndirected);
}

TEST_F(PathTest, TrailFromSection51) {
  // path(a6,t5,a3,t7,a5,t8,a1,t1,a3,t2,a2): a trail (node a3 repeats).
  Path p = MakePath(
      {"a6", "t5", "a3", "t7", "a5", "t8", "a1", "t1", "a3", "t2", "a2"});
  EXPECT_TRUE(p.IsTrail());
  EXPECT_FALSE(p.IsAcyclic());
  EXPECT_FALSE(p.IsSimple());  // The repeat is not at first/last position.
}

TEST_F(PathTest, NonTrailFromSection51) {
  // path(a6,t5,a3,t2,a2,t3,a4,t4,a6,t5,a3,t2,a2) repeats edges: not a trail.
  Path p = MakePath({"a6", "t5", "a3", "t2", "a2", "t3", "a4", "t4", "a6",
                     "t5", "a3", "t2", "a2"});
  EXPECT_FALSE(p.IsTrail());
}

TEST_F(PathTest, SimpleCycleAllowed) {
  // a3 -> a2 -> a4 -> a6 -> a3: first == last, interior distinct: SIMPLE.
  Path p = MakePath({"a3", "t2", "a2", "t3", "a4", "t4", "a6", "t5", "a3"});
  EXPECT_TRUE(p.IsTrail());
  EXPECT_FALSE(p.IsAcyclic());
  EXPECT_TRUE(p.IsSimple());
}

TEST_F(PathTest, AcyclicPath) {
  Path p = MakePath({"a6", "t5", "a3", "t2", "a2"});
  EXPECT_TRUE(p.IsAcyclic());
  EXPECT_TRUE(p.IsSimple());
  EXPECT_TRUE(p.IsTrail());
}

TEST_F(PathTest, InteriorRepeatIsNotSimple) {
  // a5,t8,a1,t1,a3,t7,a5,t8,a1: repeats interior node a1 and edge t8.
  Path p = MakePath({"a5", "t8", "a1", "t1", "a3", "t7", "a5", "t8", "a1"});
  EXPECT_FALSE(p.IsTrail());
  EXPECT_FALSE(p.IsSimple());
}

TEST_F(PathTest, Concatenate) {
  Path a = MakePath({"a6", "t5", "a3"});
  Path b = MakePath({"a3", "t2", "a2"});
  a.Concatenate(b);
  EXPECT_EQ(a.ToString(g_), "path(a6,t5,a3,t2,a2)");
  EXPECT_EQ(a.Length(), 2u);
}

TEST_F(PathTest, ConcatenateEmpty) {
  Path a = MakePath({"a6", "t5", "a3"});
  Path empty;
  a.Concatenate(empty);
  EXPECT_EQ(a.Length(), 1u);
  Path e2;
  e2.Concatenate(a);
  EXPECT_EQ(e2.Length(), 1u);
}

TEST_F(PathTest, EqualityAndHash) {
  Path p1 = MakePath({"a6", "t5", "a3"});
  Path p2 = MakePath({"a6", "t5", "a3"});
  Path p3 = MakePath({"a6", "t6", "a5"});
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(p1.Hash(), p2.Hash());
  EXPECT_FALSE(p1 == p3);
}

}  // namespace
}  // namespace gpml

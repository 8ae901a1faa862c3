// Invariants of the graph store (docs/storage.md), checked against the
// builder input through an independent model: every element's labels
// (sorted, duplicate-free), its properties (last value per key wins, NULL is
// absent), the per-node adjacency ranges (edge-id order, `u` record first),
// the label-partitioned CSR buckets (the full range filtered by label, in
// range order), the label bitsets and per-label lists, and the equality
// seed index. Inputs cover the paper graph, generated graphs (undirected
// edges, parallel edges, self-loops), random builder input with repeated
// keys and NULL values, and a label universe beyond the 64-bit masks.

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ast/label_expr.h"
#include "eval/engine.h"
#include "graph/generator.h"
#include "graph/graph_builder.h"
#include "graph/sample_graph.h"
#include "tests/test_util.h"

namespace gpml {
namespace {

/// What was handed to GraphBuilder for one element.
struct ElementInput {
  std::string name;
  std::vector<std::string> labels;
  PropertyList properties;
  std::string from, to;  // Edges only.
  bool directed = true;
};

struct GraphInput {
  std::vector<ElementInput> nodes;
  std::vector<ElementInput> edges;
};

PropertyGraph Build(const GraphInput& in) {
  GraphBuilder b;
  for (const ElementInput& n : in.nodes) {
    b.AddNode(n.name, n.labels, n.properties);
  }
  for (const ElementInput& e : in.edges) {
    if (e.directed) {
      b.AddDirectedEdge(e.name, e.from, e.to, e.labels, e.properties);
    } else {
      b.AddUndirectedEdge(e.name, e.from, e.to, e.labels, e.properties);
    }
  }
  return std::move(b).Build().value();
}

/// The input that rebuilds `g` (for graphs made by the generators, whose
/// input is not at hand): it still checks every index against the model.
GraphInput InputOf(const PropertyGraph& g) {
  GraphInput in;
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const ElementView v = g.node(n);
    in.nodes.push_back({v.name, v.labels(), v.properties()});
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const ElementView v = g.edge(e);
    in.edges.push_back({v.name, v.labels(), v.properties(),
                        g.node(v.u).name, g.node(v.v).name, v.directed});
  }
  return in;
}

/// Random builder input: duplicate and empty label sets, repeated keys,
/// NULL values, self-loops and parallel edges.
GraphInput RandomInput(uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&rng](int n) { return static_cast<int>(rng() % n); };
  auto value = [&]() {
    switch (pick(4)) {
      case 0: return Value::Null();
      case 1: return Value::Int(pick(3));
      case 2: return Value::String("s" + std::to_string(pick(3)));
      default: return Value::Double(pick(3) + 0.5);
    }
  };
  auto element = [&](const std::string& name, char prefix) {
    ElementInput el;
    el.name = name;
    for (int i = pick(4); i > 0; --i) {
      el.labels.push_back(std::string(1, prefix) + std::to_string(pick(4)));
    }
    for (int i = pick(5); i > 0; --i) {
      el.properties.emplace_back("k" + std::to_string(pick(4)), value());
    }
    return el;
  };
  GraphInput in;
  const int nodes = 6 + pick(6);
  for (int i = 0; i < nodes; ++i) {
    in.nodes.push_back(element("n" + std::to_string(i), 'N'));
  }
  for (int i = 0, edges = 3 * nodes; i < edges; ++i) {
    ElementInput e = element("e" + std::to_string(i), 'E');
    e.from = "n" + std::to_string(pick(nodes));
    e.to = "n" + std::to_string(pick(nodes));
    e.directed = pick(3) != 0;
    in.edges.push_back(std::move(e));
  }
  return in;
}

/// The model: sorted duplicate-free labels, and properties with the last
/// value per key and NULL values dropped.
std::vector<std::string> ModelLabels(const ElementInput& el) {
  std::set<std::string> set(el.labels.begin(), el.labels.end());
  return {set.begin(), set.end()};
}

std::map<std::string, Value> ModelProperties(const ElementInput& el) {
  std::map<std::string, Value> props;
  for (const auto& [key, value] : el.properties) props[key] = value;
  for (auto it = props.begin(); it != props.end();) {
    it = it->second.is_null() ? props.erase(it) : std::next(it);
  }
  return props;
}

/// The per-node adjacency model: edges in id order, the `u` record first;
/// an undirected self-loop contributes one record.
std::vector<std::vector<Adjacency>> ModelAdjacency(const GraphInput& in,
                                                   const PropertyGraph& g) {
  std::vector<std::vector<Adjacency>> adj(in.nodes.size());
  for (EdgeId e = 0; e < in.edges.size(); ++e) {
    const NodeId u = g.FindNode(in.edges[e].from);
    const NodeId v = g.FindNode(in.edges[e].to);
    if (in.edges[e].directed) {
      adj[u].push_back({e, v, Traversal::kForward});
      adj[v].push_back({e, u, Traversal::kBackward});
    } else {
      adj[u].push_back({e, v, Traversal::kUndirected});
      if (u != v) adj[v].push_back({e, u, Traversal::kUndirected});
    }
  }
  return adj;
}

bool SameRecords(const std::vector<Adjacency>& want, AdjSpan got) {
  if (want.size() != got.count) return false;
  for (size_t i = 0; i < want.size(); ++i) {
    const Adjacency& a = want[i];
    const Adjacency& b = got.data[i];
    if (a.edge != b.edge || a.neighbor != b.neighbor ||
        a.traversal != b.traversal) {
      return false;
    }
  }
  return true;
}

/// One element's labels and properties against the model.
void CheckElement(const PropertyGraph& g, ElementRef ref,
                  const ElementInput& in, SymSpan syms, uint64_t bits) {
  const ElementView v = g.element(ref);
  const std::string where =
      std::string(ref.is_node() ? "node " : "edge ") + in.name;
  EXPECT_EQ(v.name, in.name);
  const std::vector<std::string> labels = ModelLabels(in);
  EXPECT_EQ(v.labels(), labels) << where;
  ASSERT_EQ(syms.count, labels.size()) << where;
  ASSERT_TRUE(std::is_sorted(syms.begin(), syms.end())) << where;
  uint64_t want_bits = 0;
  for (size_t i = 0; i < labels.size(); ++i) {
    const Symbol s = g.label_symbols().Find(labels[i]);
    EXPECT_EQ(syms.data[i], s) << where << ":" << labels[i];
    EXPECT_TRUE(v.HasLabel(labels[i])) << where;
    if (g.label_bits_usable()) want_bits |= uint64_t{1} << s;
  }
  EXPECT_FALSE(v.HasLabel("NoSuchLabel"));
  if (g.label_bits_usable()) EXPECT_EQ(bits, want_bits) << where;

  const std::map<std::string, Value> props = ModelProperties(in);
  EXPECT_EQ(v.properties(), PropertyList(props.begin(), props.end()))
      << where;
  for (const auto& [key, value] : in.properties) {
    auto it = props.find(key);
    const Value& want = it == props.end() ? Value::Null() : it->second;
    EXPECT_EQ(v.GetProperty(key), want) << where << "." << key;
    EXPECT_EQ(g.GetPropertyFast(ref, key), want) << where << "." << key;
  }
  EXPECT_TRUE(v.GetProperty("no_such_key").is_null());
}

/// Every storage invariant of `g` against the input that built it.
void CheckGraph(const PropertyGraph& g, const GraphInput& in) {
  ASSERT_EQ(g.num_nodes(), in.nodes.size());
  ASSERT_EQ(g.num_edges(), in.edges.size());
  const SymbolTable& labels = g.label_symbols();
  const SymbolTable& keys = g.property_symbols();

  // Symbol order is name order, for labels and property keys alike.
  for (Symbol s = 1; s < labels.size(); ++s) {
    EXPECT_LT(labels.name(s - 1), labels.name(s));
  }
  for (Symbol s = 1; s < keys.size(); ++s) {
    EXPECT_LT(keys.name(s - 1), keys.name(s));
  }

  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    CheckElement(g, ElementRef::Node(n), in.nodes[n], g.node_label_syms(n),
                 g.node_label_bits(n));
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    CheckElement(g, ElementRef::Edge(e), in.edges[e], g.edge_label_syms(e),
                 g.edge_label_bits(e));
    const ElementView v = g.edge(e);
    EXPECT_EQ(g.node(v.u).name, in.edges[e].from);
    EXPECT_EQ(g.node(v.v).name, in.edges[e].to);
    EXPECT_EQ(v.directed, in.edges[e].directed);
  }

  // Per-label element lists: ascending ids of the elements carrying it.
  for (Symbol s = 0; s < labels.size(); ++s) {
    std::vector<NodeId> nodes;
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      if (g.node(n).HasLabel(labels.name(s))) nodes.push_back(n);
    }
    EXPECT_EQ(g.NodesWithLabel(s), nodes) << labels.name(s);
    std::vector<EdgeId> edges;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (g.edge(e).HasLabel(labels.name(s))) edges.push_back(e);
    }
    EXPECT_EQ(g.EdgesWithLabel(s), edges) << labels.name(s);
  }
  EXPECT_TRUE(g.NodesWithLabel(kInvalidSymbol).empty());

  // Full ranges equal the adjacency model; each label bucket equals the
  // model filtered by that label, in range order; unknown labels are empty.
  const std::vector<std::vector<Adjacency>> adj = ModelAdjacency(in, g);
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    EXPECT_TRUE(SameRecords(adj[n], g.adjacencies(n))) << "node " << n;
    EXPECT_TRUE(SameRecords(adj[n], g.csr().Range(n, kNoLabelPartition)));
    for (Symbol s = 0; s < labels.size(); ++s) {
      std::vector<Adjacency> want;
      for (const Adjacency& a : adj[n]) {
        const std::vector<std::string> el = ModelLabels(in.edges[a.edge]);
        if (std::binary_search(el.begin(), el.end(), labels.name(s))) {
          want.push_back(a);
        }
      }
      AdjSpan got = g.csr().Range(n, s);
      EXPECT_TRUE(SameRecords(want, got))
          << "node " << n << " label " << labels.name(s) << ": want "
          << want.size() << " records, got " << got.count;
    }
    EXPECT_EQ(g.csr().Range(n, static_cast<Symbol>(labels.size())).count,
              0u);
    EXPECT_EQ(g.csr().Range(n, kInvalidSymbol).count, 0u);
  }

  // Equality seed index: for every (label, key, value) on some node, the
  // nodes of the model scan in ascending id order.
  for (const ElementInput& node : in.nodes) {
    for (const std::string& label : ModelLabels(node)) {
      for (const auto& [key, value] : ModelProperties(node)) {
        std::vector<NodeId> want;
        for (NodeId m = 0; m < in.nodes.size(); ++m) {
          const std::vector<std::string> ml = ModelLabels(in.nodes[m]);
          const std::map<std::string, Value> mp =
              ModelProperties(in.nodes[m]);
          auto it = mp.find(key);
          if (std::binary_search(ml.begin(), ml.end(), label) &&
              it != mp.end() && it->second == value) {
            want.push_back(m);
          }
        }
        EXPECT_EQ(g.IndexedNodes(label, key, value), want)
            << label << "." << key << " = " << value.ToString();
      }
    }
  }
  EXPECT_TRUE(g.IndexedNodes("NoSuchLabel", "k", Value::Int(1)).empty());
  EXPECT_TRUE(g.IndexedNodes("", "", Value::Null()).empty());
}

/// A graph and the input it was built from, checked together; rebuilding
/// a generator graph from its views must reproduce every index exactly.
void CheckGraph(const PropertyGraph& g) {
  const GraphInput in = InputOf(g);
  CheckGraph(g, in);
  CheckGraph(Build(in), in);
}

TEST(CsrIndexTest, PaperGraph) { CheckGraph(BuildPaperGraph()); }

TEST(CsrIndexTest, FraudGraph) {
  FraudGraphOptions options;
  options.num_accounts = 60;
  options.num_cities = 3;
  CheckGraph(MakeFraudGraph(options));
}

TEST(CsrIndexTest, GeneratedGraphs) {
  // Mixed directed/undirected multigraphs with parallel edges and
  // self-loops (random endpoints collide at this density).
  for (uint64_t seed : {1u, 2u, 3u, 7u}) {
    CheckGraph(MakeRandomGraph(/*num_nodes=*/8, /*num_edges=*/40,
                               /*num_labels=*/3,
                               /*undirected_fraction=*/0.4, seed));
  }
  CheckGraph(MakeChainGraph(12));
  CheckGraph(MakeDiamondChain(3));
}

TEST(CsrIndexTest, ColumnsEqualBuilderInput) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const GraphInput in = RandomInput(seed);
    CheckGraph(Build(in), in);
  }
}

TEST(CsrIndexTest, SelfLoopsAndParallelEdges) {
  GraphBuilder b;
  b.AddNode("a", {"A", "B"}, {{"w", Value::Int(1)}});
  b.AddNode("b", {"A"}, {{"w", Value::Int(1)}});
  b.AddDirectedEdge("d1", "a", "a", {"T"});             // Directed self-loop.
  b.AddUndirectedEdge("u1", "b", "b", {"T", "S"});      // Undirected loop.
  b.AddDirectedEdge("d2", "a", "b", {"T"});             // Parallel pair...
  b.AddDirectedEdge("d3", "a", "b", {"T"});
  b.AddUndirectedEdge("u2", "a", "b", {"S"});
  b.AddDirectedEdge("plain", "a", "b", {});             // Label-less.
  PropertyGraph g = std::move(b).Build().value();
  CheckGraph(g);

  // The directed self-loop contributes forward and backward records to one
  // bucket; the undirected loop exactly one record.
  NodeId a = g.FindNode("a");
  NodeId bn = g.FindNode("b");
  Symbol t = g.label_symbols().Find("T");
  Symbol s = g.label_symbols().Find("S");
  EXPECT_EQ(g.csr().Range(a, t).count, 4u);  // d1 fwd+bwd, d2, d3.
  EXPECT_EQ(g.csr().Range(bn, t).count, 3u);  // u1 once, d2+d3 backward.
  EXPECT_EQ(g.csr().Range(a, s).count, 1u);
  EXPECT_EQ(g.csr().Range(bn, s).count, 2u);  // u1 + u2.
}

TEST(CsrIndexTest, CompiledLabelPredsAgreeWithStringMatching) {
  PropertyGraph g = MakeRandomGraph(10, 30, 4, 0.3, /*seed=*/5);
  const SymbolTable& labels = g.label_symbols();
  ASSERT_TRUE(g.label_bits_usable());

  std::vector<LabelExprPtr> exprs = {
      nullptr,
      LabelExpr::Name("L0"),
      LabelExpr::Name("Unknown"),
      LabelExpr::Wildcard(),
      LabelExpr::And(LabelExpr::Name("L0"), LabelExpr::Name("L1")),
      LabelExpr::Or(LabelExpr::Name("L0"), LabelExpr::Name("L2")),
      LabelExpr::Or(LabelExpr::Name("Unknown"), LabelExpr::Name("L1")),
      LabelExpr::Not(LabelExpr::Name("L0")),
      LabelExpr::Not(LabelExpr::Wildcard()),
      LabelExpr::And(LabelExpr::Not(LabelExpr::Name("L0")),
                     LabelExpr::Or(LabelExpr::Name("L1"),
                                   LabelExpr::Name("L2"))),
      LabelExpr::Or(LabelExpr::And(LabelExpr::Name("L0"),
                                   LabelExpr::Name("Unknown")),
                    LabelExpr::Not(LabelExpr::Name("L3"))),
  };
  for (bool use_bits : {true, false}) {
    for (const LabelExprPtr& expr : exprs) {
      CompiledLabelPred pred =
          CompiledLabelPred::Compile(expr, labels, use_bits);
      for (NodeId n = 0; n < g.num_nodes(); ++n) {
        SymSpan syms = g.node_label_syms(n);
        bool want = expr == nullptr || expr->Matches(g.node(n).labels());
        EXPECT_EQ(pred.Matches(use_bits ? g.node_label_bits(n) : 0,
                               syms.data, syms.count),
                  want)
            << (expr ? expr->ToString() : "<null>") << " on node " << n
            << " bits=" << use_bits;
      }
    }
  }
}

TEST(CsrIndexTest, LabelUniverseBeyondBitsetStillExact) {
  // 70 distinct labels: the bitset representation is unusable and every
  // path (predicates, CSR, seeding) must fall back to symbol arrays.
  GraphBuilder b;
  const int kNodes = 70;
  for (int i = 0; i < kNodes; ++i) {
    b.AddNode("n" + std::to_string(i),
              {"L" + std::to_string(i), "Common"},
              {{"w", Value::Int(i % 7)}});
  }
  for (int i = 0; i < kNodes; ++i) {
    b.AddDirectedEdge("e" + std::to_string(i), "n" + std::to_string(i),
                      "n" + std::to_string((i + 1) % kNodes),
                      {"E" + std::to_string(i % 5)});
  }
  PropertyGraph g = std::move(b).Build().value();
  ASSERT_FALSE(g.label_bits_usable());
  CheckGraph(g);

  // End-to-end through the engine: the conjunction must match exactly
  // n3 -[e3]-> n4 (n4.w = 4 < 5) on both matcher routes.
  const std::string q =
      "MATCH (x:L3&Common)-[:E3]->(y:Common WHERE y.w < 5)";
  for (bool batch : {true, false}) {
    EngineOptions options;
    options.use_batch = batch;
    EXPECT_EQ(testing_util::Rows(g, q, "x, y", options),
              std::vector<std::string>{"n3|n4"})
        << "batch=" << batch;
  }
}

TEST(CsrIndexTest, ConjunctionSeedsFromMostSelectiveConjunct) {
  // Paper graph: 2 Country nodes, 1 City node (c2 is City & Country). The
  // conjunction must seed from the City index (1 node), not all nodes.
  PropertyGraph g = BuildPaperGraph();
  EngineMetrics metrics;
  EngineOptions options;
  options.use_planner = false;  // Exercise the matcher's own seeding rule.
  options.metrics = &metrics;
  Engine engine(g, options);
  Result<MatchOutput> out = engine.Match("MATCH (x:City&Country)");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->rows.size(), 1u);
  EXPECT_EQ(metrics.seeded_nodes, 1u);

  // The planner's estimate mirrors the same rule (EXPLAIN seeds~1).
  EngineOptions planned;
  planned.metrics = &metrics;
  Result<MatchOutput> out2 =
      Engine(g, planned).Match("MATCH (x:City&Country)");
  ASSERT_TRUE(out2.ok());
  EXPECT_EQ(out2->rows.size(), 1u);
  EXPECT_EQ(metrics.seeded_nodes, 1u);
}

TEST(CsrIndexTest, SymbolTableRoundtrip) {
  SymbolTable t;
  EXPECT_EQ(t.Find("x"), kInvalidSymbol);
  Symbol a = t.Intern("alpha");
  Symbol b = t.Intern("beta");
  EXPECT_EQ(t.Intern("alpha"), a);
  EXPECT_NE(a, b);
  EXPECT_EQ(t.Find("alpha"), a);
  EXPECT_EQ(t.name(b), "beta");
  EXPECT_EQ(t.size(), 2u);
}

}  // namespace
}  // namespace gpml

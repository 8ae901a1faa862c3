// E1: property graph substrate — construction, adjacency traversal, label
// index. Establishes the substrate costs underneath every other benchmark.

#include <benchmark/benchmark.h>

#include "graph/generator.h"
#include "graph/sample_graph.h"

namespace gpml {
namespace {

void BM_BuildPaperGraph(benchmark::State& state) {
  for (auto _ : state) {
    PropertyGraph g = BuildPaperGraph();
    benchmark::DoNotOptimize(g.num_edges());
  }
}
BENCHMARK(BM_BuildPaperGraph);

void BM_BuildFraudGraph(benchmark::State& state) {
  FraudGraphOptions options;
  options.num_accounts = static_cast<int>(state.range(0));
  for (auto _ : state) {
    PropertyGraph g = MakeFraudGraph(options);
    benchmark::DoNotOptimize(g.num_edges());
  }
  state.SetItemsProcessed(state.iterations() * options.num_accounts);
}
BENCHMARK(BM_BuildFraudGraph)->Arg(100)->Arg(1000)->Arg(10000);

void BM_AdjacencyScan(benchmark::State& state) {
  FraudGraphOptions options;
  options.num_accounts = static_cast<int>(state.range(0));
  PropertyGraph g = MakeFraudGraph(options);
  for (auto _ : state) {
    size_t total = 0;
    for (NodeId n = 0; n < g.num_nodes(); ++n) {
      for (const Adjacency& a : g.adjacencies(n)) total += a.edge;
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(g.num_edges()) * 2);
}
BENCHMARK(BM_AdjacencyScan)->Arg(1000)->Arg(10000);

void BM_LabelIndexLookup(benchmark::State& state) {
  FraudGraphOptions options;
  options.num_accounts = 10000;
  PropertyGraph g = MakeFraudGraph(options);
  for (auto _ : state) {
    const SymbolTable& labels = g.label_symbols();
    benchmark::DoNotOptimize(
        g.NodesWithLabel(labels.Find("Account")).size());
    benchmark::DoNotOptimize(
        g.EdgesWithLabel(labels.Find("Transfer")).size());
  }
}
BENCHMARK(BM_LabelIndexLookup);

void BM_PropertyAccess(benchmark::State& state) {
  PropertyGraph g = BuildPaperGraph();
  NodeId a1 = g.FindNode("a1");
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.node(a1).GetProperty("owner"));
    benchmark::DoNotOptimize(g.node(a1).GetProperty("missing"));
  }
}
BENCHMARK(BM_PropertyAccess);

}  // namespace
}  // namespace gpml

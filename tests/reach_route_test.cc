// The reachability route (docs/vectorized.md) and end-bound filtering
// (docs/planner.md). Quantified ANY / ANY SHORTEST programs whose bodies
// are single anonymous edges run one BFS per seed over (edge-step position,
// node) pairs and materialize only the witness they keep per endpoint
// partition. Contract: rows are byte-identical to the scalar interpreter
// (`use_batch = false`) at every thread count, and endpoint sets equal the
// §6 reference evaluator's. The end filter drops accepts whose final node
// is not among the bindings earlier declarations made, on every route,
// without changing any surviving row.

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "eval/engine.h"
#include "eval/matcher.h"
#include "eval/nfa.h"
#include "eval/reference_eval.h"
#include "graph/generator.h"
#include "graph/graph_builder.h"
#include "parser/parser.h"
#include "planner/explain.h"
#include "semantics/normalize.h"

namespace gpml {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 4, 8};

/// One binding rendered with everything a row carries: reduced bindings,
/// the path's node and edge ids, and the path length.
std::string Render(const PathBinding& pb, const PropertyGraph& g,
                   const VarTable& vars) {
  std::string s = pb.ToString(g, vars) + " |";
  for (NodeId n : pb.path.nodes()) s += " n" + std::to_string(n);
  for (EdgeId e : pb.path.edges()) s += " e" + std::to_string(e);
  return s + " len=" + std::to_string(pb.path.Length());
}

/// Rows in delivery order (not sorted: the contract is byte identity).
std::vector<std::string> OrderedRows(const MatchOutput& out,
                                     const PropertyGraph& g) {
  std::vector<std::string> rows;
  rows.reserve(out.rows.size());
  for (const ResultRow& row : out.rows) {
    std::string s;
    for (const auto& pb : row.bindings) s += Render(*pb, g, *out.vars) + ";";
    rows.push_back(std::move(s));
  }
  return rows;
}

EngineOptions Options(bool use_batch, size_t threads) {
  EngineOptions options;
  options.use_batch = use_batch;
  options.num_threads = threads;
  options.matcher.min_seeds_per_shard = 1;
  options.slow_query_ms = -1;
  options.publish_query_stats = false;
  return options;
}

Result<MatchOutput> Execute(const PropertyGraph& g, const std::string& query,
                        EngineOptions options, const Params& params = {},
                        EngineMetrics* metrics = nullptr) {
  options.metrics = metrics;
  GPML_ASSIGN_OR_RETURN(PreparedQuery q, Engine(g, options).Prepare(query));
  return q.Execute(params);
}

/// The step lines of `query`'s EXPLAIN ANALYZE on the reach route.
std::vector<planner::ExplainedDecl> AnalyzedSteps(const PropertyGraph& g,
                                                  const std::string& query,
                                                  const Params& params) {
  Result<std::string> text =
      Engine(g, Options(true, 1)).ExplainAnalyze(query, params);
  EXPECT_TRUE(text.ok()) << query << ": " << text.status();
  if (!text.ok()) return {};
  Result<planner::ExplainedPlan> plan = planner::ParseExplain(*text);
  EXPECT_TRUE(plan.ok()) << plan.status();
  return plan.ok() ? plan->decls : std::vector<planner::ExplainedDecl>();
}

/// The matcher route EXPLAIN ANALYZE reports for each declaration.
std::vector<std::string> Routes(const PropertyGraph& g,
                                const std::string& query,
                                const Params& params = {}) {
  std::vector<std::string> routes;
  for (const planner::ExplainedDecl& d : AnalyzedSteps(g, query, params)) {
    routes.push_back(d.actual_route);
  }
  return routes;
}

/// Rows at every thread count on the reach route equal the scalar oracle's
/// rows byte for byte; returns the oracle output.
MatchOutput ExpectScalarIdentity(const PropertyGraph& g,
                                 const std::string& query,
                                 const Params& params = {}) {
  Result<MatchOutput> oracle = Execute(g, query, Options(false, 1), params);
  EXPECT_TRUE(oracle.ok()) << query << ": " << oracle.status();
  if (!oracle.ok()) return MatchOutput();
  const std::vector<std::string> want = OrderedRows(*oracle, g);
  for (size_t threads : kThreadCounts) {
    Result<MatchOutput> got = Execute(g, query, Options(true, threads), params);
    EXPECT_TRUE(got.ok()) << query << ": " << got.status();
    if (!got.ok()) continue;
    EXPECT_EQ(OrderedRows(*got, g), want)
        << query << " threads=" << threads << " on " << g.Summary();
  }
  return *oracle;
}

/// (start, end[, length]) of every binding; lengths only when `lengths`.
using Endpoint = std::tuple<NodeId, NodeId, size_t>;

std::set<Endpoint> Endpoints(const std::vector<PathBinding>& bindings,
                             bool lengths) {
  std::set<Endpoint> out;
  for (const PathBinding& pb : bindings) {
    out.insert({pb.path.Start(), pb.path.End(),
                lengths ? pb.path.Length() : size_t{0}});
  }
  return out;
}

/// Endpoint sets (with lengths under ANY SHORTEST) equal the reference
/// evaluator's for a single-declaration query.
void ExpectReferenceEndpoints(const PropertyGraph& g, const std::string& query,
                              const MatchOutput& engine_out) {
  Result<GraphPattern> parsed = ParseGraphPattern(query);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  Result<GraphPattern> normalized = Normalize(*parsed);
  ASSERT_TRUE(normalized.ok()) << normalized.status();
  Result<Analysis> analysis = Analyze(*normalized);
  ASSERT_TRUE(analysis.ok()) << analysis.status();
  VarTable vars(*analysis);
  // Every endpoint pair (and shortest length) of these shapes is realized
  // within |N| + 2 iterations; the cap keeps the walk enumeration small.
  ReferenceOptions ref_options;
  ref_options.expansion_cap = g.num_nodes() + 2;
  Result<MatchSet> ref =
      RunReference(g, normalized->paths[0], vars, ref_options);
  ASSERT_TRUE(ref.ok()) << query << ": " << ref.status();
  const bool lengths =
      normalized->paths[0].selector.kind == Selector::Kind::kAnyShortest;
  std::vector<PathBinding> engine_bindings;
  for (const ResultRow& row : engine_out.rows) {
    engine_bindings.push_back(*row.bindings[0]);
  }
  EXPECT_EQ(Endpoints(engine_bindings, lengths),
            Endpoints(ref->bindings, lengths))
      << query << " on " << g.Summary();
}

/// Quantified ANY / ANY SHORTEST shapes the reach route takes: every
/// orientation, {m,n} / {m,} / {0,} quantifiers, labels on edges and
/// endpoints, endpoint kernels, cycles back to the start node, and fixed
/// hops through anonymous nodes before or after the quantifier.
const char* kEligible[] = {
    "MATCH ANY (x)-[:L0]->+(y)",
    "MATCH ANY SHORTEST (x)<-[:L1]-+(y)",
    "MATCH ANY (x)-[:L0|L1]-+(y)",
    "MATCH ANY SHORTEST (x)~[]~+(y)",
    "MATCH ANY (x:L0)-[]->{2,3}(y:L1)",
    "MATCH ANY SHORTEST (x WHERE x.w < 50)-[:L2|L0]->{1,4}"
    "(y WHERE y.w >= 30)",
    "MATCH ANY (x)-[]->+(x)",
    "MATCH ANY SHORTEST (x)-[]-{2,}(x)",
    "MATCH ANY SHORTEST p = (x)-[]->*(y)",
    "MATCH ANY (x)-[:L0]->{0,2}(y)",
    "MATCH ANY (x:!L2)-[:!L1]->{2}(y)",
    "MATCH ANY (x)-[:L0]->()-[:L1]->+(y)",
    "MATCH ANY SHORTEST (x)-[:L0]->*()<-[:L1]-(y)",
};

/// Selector programs that must stay on the scalar BFS: named interior
/// variables (edge kernels need one), restrictors, multi-edge bodies, and
/// selectors other than ANY / ANY SHORTEST.
const char* kIneligible[] = {
    "MATCH ANY (x)-[e:L0 WHERE e.w > 30]->+(y)",
    "MATCH ANY TRAIL (x)-[:L0]->+(y)",
    "MATCH ANY (x)[()-[:L0]->()-[:L1]->()]{1,2}(y)",
    "MATCH ALL SHORTEST (x)-[:L0]->+(y)",
    "MATCH ANY 2 (x)-[:L0]->+(y)",
    "MATCH ANY (x)-[:L0]->(m)-[:L1]->+(y)",
};

TEST(ReachRouteTest, EligibleShapesTakeTheReachRoute) {
  PropertyGraph g = MakeRandomGraph(12, 30, 3, 0.3, 7);
  for (const char* query : kEligible) {
    EXPECT_EQ(Routes(g, query), std::vector<std::string>{"reach"}) << query;
  }
  for (const char* query : kIneligible) {
    EXPECT_EQ(Routes(g, query), std::vector<std::string>{"scalar"}) << query;
  }
  // The scalar oracle reports itself.
  Result<std::string> text = Engine(g, Options(false, 1))
                                 .ExplainAnalyze("MATCH ANY (x)-[:L0]->+(y)");
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("actual_route=scalar"), std::string::npos) << *text;
}

TEST(ReachRouteTest, RandomMultigraphsMatchScalarAndReference) {
  // Larger graphs: byte identity against the scalar BFS.
  for (uint64_t seed : {1u, 2u, 3u}) {
    PropertyGraph g = MakeRandomGraph(40, 120, 3, 0.25, seed);
    for (const char* query : kEligible) ExpectScalarIdentity(g, query);
    for (const char* query : kIneligible) ExpectScalarIdentity(g, query);
  }
  // Tiny graphs: the reference evaluator enumerates every walk up to its
  // expansion cap, so endpoint sets are checked where that stays small.
  for (uint64_t seed : {11u, 12u, 13u, 14u}) {
    PropertyGraph g = MakeRandomGraph(6, 9, 3, 0.3, seed);
    for (const char* query : kEligible) {
      MatchOutput out = ExpectScalarIdentity(g, query);
      ExpectReferenceEndpoints(g, query, out);
    }
  }
}

/// Self-loops, parallel edges (same and opposite directions), an
/// undirected edge, and an isolated node.
PropertyGraph LoopGraph() {
  GraphBuilder b;
  for (const char* n : {"a", "b", "c", "d", "iso"}) {
    b.AddNode(n, {"N"}, {{"w", Value::Int(n[0] == 'a' ? 10 : 60)}});
  }
  b.AddDirectedEdge("aa", "a", "a", {"L0"});
  b.AddDirectedEdge("ab1", "a", "b", {"L0"});
  b.AddDirectedEdge("ab2", "a", "b", {"L0"});
  b.AddDirectedEdge("ba", "b", "a", {"L1"});
  b.AddDirectedEdge("bc", "b", "c", {"L0"});
  b.AddDirectedEdge("cc", "c", "c", {"L1"});
  b.AddUndirectedEdge("cd", "c", "d", {"L0"});
  b.AddDirectedEdge("dd1", "d", "d", {"L0"});
  b.AddDirectedEdge("dd2", "d", "d", {"L0"});
  Result<PropertyGraph> g = std::move(b).Build();
  EXPECT_TRUE(g.ok());
  return std::move(*g);
}

TEST(ReachRouteTest, SelfLoopsAndParallelEdges) {
  PropertyGraph g = LoopGraph();
  for (const char* query : kEligible) {
    MatchOutput out = ExpectScalarIdentity(g, query);
    ExpectReferenceEndpoints(g, query, out);
  }
  // A self-loop is a one-edge cycle back to the start.
  Result<MatchOutput> loops =
      Execute(g, "MATCH ANY SHORTEST (x)-[:L0]->+(x)", Options(true, 1));
  ASSERT_TRUE(loops.ok());
  std::set<size_t> lengths;
  for (const ResultRow& row : loops->rows) {
    lengths.insert(row.bindings[0]->path.Length());
  }
  EXPECT_EQ(lengths, std::set<size_t>{1});  // a->a, d->d (c->d->c is 2).
}

TEST(ReachRouteTest, UnreachableTargetsYieldNothing) {
  PropertyGraph g = LoopGraph();
  // No edge reaches or leaves `iso`; no edge carries L2.
  for (const char* query : {
           "MATCH ANY (x)-[]->+(y WHERE y.w = 99)",
           "MATCH ANY SHORTEST (x)-[:L2]->+(y)",
           "MATCH ANY (x)-[:L1]->{3,5}(y:N)",
       }) {
    MatchOutput out = ExpectScalarIdentity(g, query);
    ExpectReferenceEndpoints(g, query, out);
  }
  Result<MatchOutput> out = Execute(
      g, "MATCH ANY (x)-[]-+(y)", Options(true, 1));
  ASSERT_TRUE(out.ok());
  for (const ResultRow& row : out->rows) {
    EXPECT_NE(g.node(row.bindings[0]->path.End()).name, "iso");
    EXPECT_NE(g.node(row.bindings[0]->path.Start()).name, "iso");
  }
}

// --- Figure 4 on a fraud graph ----------------------------------------------

constexpr char kFig4Head[] =
    "MATCH (x:Account WHERE x.isBlocked='no')-[:isLocatedIn]->"
    "(g:City WHERE g.name=$city)<-[:isLocatedIn]-"
    "(y:Account WHERE y.isBlocked='yes'), ";
const char* const kFig4Tails[] = {
    "ANY (x)-[:Transfer]->+(y)",
    "ANY SHORTEST p = (x)-[:Transfer]->+(y)",
    "ANY (x)-[:Transfer]->{1,3}(y)",
};

PropertyGraph FraudGraph() {
  FraudGraphOptions options;
  options.num_accounts = 120;
  options.num_cities = 6;
  return MakeFraudGraph(options);
}

std::string City(int i) {
  return i == 0 ? "Ankh-Morpork" : "City" + std::to_string(i);
}

TEST(ReachRouteTest, Figure4RowsAreByteIdenticalOnEveryThreadCount) {
  PropertyGraph g = FraudGraph();
  size_t total_rows = 0;
  size_t target_side = 0;
  for (int city = 0; city < 6; ++city) {
    const Params params{{"city", Value::String(City(city))}};
    for (const char* tail : kFig4Tails) {
      const std::string query = std::string(kFig4Head) + tail;
      MatchOutput out = ExpectScalarIdentity(g, query, params);
      total_rows += out.rows.size();
      EXPECT_EQ(Routes(g, query, params),
                (std::vector<std::string>{"batch", "reach"}))
          << query;
      // Each city binds fewer blocked ends than unblocked starts, so the
      // path step searches from its ends.
      std::vector<planner::ExplainedDecl> steps =
          AnalyzedSteps(g, query, params);
      ASSERT_EQ(steps.size(), 2u);
      if (steps[0].actual_rows > 0) {
        EXPECT_EQ(steps[1].reach_from, "targets") << query << " " << city;
        ++target_side;
      }
    }
  }
  EXPECT_GT(total_rows, 0u);  // The workload is not vacuous.
  EXPECT_GT(target_side, 0u);
}

TEST(ReachRouteTest, Figure4WholeGraphMatchesScalar) {
  PropertyGraph g = FraudGraph();
  for (const char* tail : kFig4Tails) {
    ExpectScalarIdentity(g, std::string("MATCH ") + tail);
  }
}

// --- End filter -------------------------------------------------------------

struct Compiled {
  GraphPattern normalized;
  std::shared_ptr<VarTable> vars;
  Program program;
};

Compiled Compile(const PropertyGraph& g, const std::string& query) {
  Compiled c;
  Result<GraphPattern> parsed = ParseGraphPattern(query);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  c.normalized = *Normalize(*parsed);
  Result<Analysis> analysis = Analyze(c.normalized);
  EXPECT_TRUE(analysis.ok()) << analysis.status();
  c.vars = std::make_shared<VarTable>(*analysis);
  Result<Program> program = CompilePattern(c.normalized.paths[0], *c.vars);
  EXPECT_TRUE(program.ok()) << program.status();
  c.program = std::move(*program);
  BindProgramToGraph(&c.program, g, c.vars.get());
  return c;
}

std::vector<std::string> Rendered(const MatchSet& set, const PropertyGraph& g,
                                  const VarTable& vars) {
  std::vector<std::string> out;
  for (const PathBinding& pb : set.bindings) out.push_back(Render(pb, g, vars));
  return out;
}

/// One pattern per route: batch (fixed length), scalar DFS (restrictor),
/// scalar BFS (ALL SHORTEST), reach (ANY / ANY SHORTEST).
const char* kEndFilterQueries[] = {
    "MATCH (x)-[:L0]->()-[]->(y)",
    "MATCH TRAIL (x)-[:L0]->*(y)",
    "MATCH ALL SHORTEST (x)-[]-+(y)",
    "MATCH ANY (x)-[]->+(y)",
    "MATCH ANY SHORTEST (x)<-[:L1|L2]-{1,3}(y)",
};

TEST(EndFilterTest, KeepsExactlyTheRowsEndingInTheFilter) {
  PropertyGraph g = MakeRandomGraph(30, 80, 3, 0.2, 5);
  std::vector<NodeId> ends;
  for (NodeId n = 0; n < g.num_nodes(); n += 4) ends.push_back(n);
  for (const char* query : kEndFilterQueries) {
    Compiled c = Compile(g, query);
    for (bool use_batch : {false, true}) {
      for (size_t threads : kThreadCounts) {
        MatcherOptions options;
        options.use_batch = use_batch;
        options.num_threads = threads;
        options.min_seeds_per_shard = 1;
        Result<MatchSet> full = RunPattern(g, c.program, *c.vars, options);
        ASSERT_TRUE(full.ok()) << query << ": " << full.status();
        MatchSet want;
        for (const PathBinding& pb : full->bindings) {
          if (std::binary_search(ends.begin(), ends.end(), pb.path.End())) {
            want.bindings.push_back(pb);
          }
        }
        MatchStats stats;
        Result<MatchSet> got =
            RunPattern(g, c.program, *c.vars, options, nullptr, &stats,
                       nullptr, nullptr, nullptr, &ends);
        ASSERT_TRUE(got.ok()) << query << ": " << got.status();
        EXPECT_EQ(Rendered(*got, g, *c.vars), Rendered(want, g, *c.vars))
            << query << " batch=" << use_batch << " threads=" << threads;
        EXPECT_FALSE(want.bindings.empty()) << query;
      }
    }
  }
}

TEST(EndFilterTest, MaxMatchesCountsAcceptsAfterTheFilter) {
  PropertyGraph g = MakeRandomGraph(30, 80, 3, 0.2, 5);
  const std::vector<NodeId> ends = {3, 17};
  // Routes whose accepts are exactly their bindings: no selector (dedup is
  // the only reduction), and the reach route (one witness per partition).
  const std::pair<const char*, bool> cells[] = {
      {kEndFilterQueries[0], false}, {kEndFilterQueries[0], true},
      {kEndFilterQueries[1], false}, {kEndFilterQueries[1], true},
      {kEndFilterQueries[3], true},  {kEndFilterQueries[4], true},
  };
  for (const auto& [query, use_batch] : cells) {
    Compiled c = Compile(g, query);
    MatcherOptions options;
    options.use_batch = use_batch;
    Result<MatchSet> filtered = RunPattern(g, c.program, *c.vars, options,
                                           nullptr, nullptr, nullptr, nullptr,
                                           nullptr, &ends);
    ASSERT_TRUE(filtered.ok()) << filtered.status();
    Result<MatchSet> full = RunPattern(g, c.program, *c.vars, options);
    ASSERT_TRUE(full.ok());
    ASSERT_GT(full->bindings.size(), filtered->bindings.size()) << query;
    // A cap the filtered accepts fit exactly and the unfiltered run passes.
    options.max_matches = filtered->bindings.size();
    EXPECT_TRUE(RunPattern(g, c.program, *c.vars, options, nullptr, nullptr,
                           nullptr, nullptr, nullptr, &ends)
                    .ok())
        << query << " batch=" << use_batch;
    EXPECT_FALSE(RunPattern(g, c.program, *c.vars, options).ok())
        << query << " batch=" << use_batch;
  }
}

TEST(EndFilterTest, ReachSeedsStopOnceEveryTargetHasItsWitness) {
  PropertyGraph g = MakeRandomGraph(60, 200, 2, 0.0, 9);
  Compiled c = Compile(g, "MATCH ANY (x)-[]->+(y)");
  MatcherOptions options;
  // Two seeds: an end filter at least as long keeps the seed side.
  const std::vector<NodeId> seeds = {0, 1};
  MatchStats open_stats;
  Result<MatchSet> open = RunPattern(g, c.program, *c.vars, options, &seeds,
                                     &open_stats);
  ASSERT_TRUE(open.ok());
  ASSERT_EQ(open_stats.route, MatchRoute::kReach);
  // Each seed's first witnesses: the ends its BFS meets first.
  std::vector<NodeId> ends;
  for (const PathBinding& pb : open->bindings) {
    if (pb.path.Length() == 1) ends.push_back(pb.path.End());
  }
  std::sort(ends.begin(), ends.end());
  ends.erase(std::unique(ends.begin(), ends.end()), ends.end());
  ends.resize(std::min<size_t>(ends.size(), 3));
  ASSERT_GE(ends.size(), seeds.size());
  MatchStats stats;
  Result<MatchSet> filtered =
      RunPattern(g, c.program, *c.vars, options, &seeds, &stats, nullptr,
                 nullptr, nullptr, &ends);
  ASSERT_TRUE(filtered.ok());
  EXPECT_FALSE(stats.reach_from_targets);
  EXPECT_LT(stats.steps, open_stats.steps);
  EXPECT_FALSE(filtered->bindings.empty());
}

TEST(EndFilterTest, PlannerBindsTheEndAndRowsStayPut) {
  PropertyGraph g = FraudGraph();
  const Params params{{"city", Value::String(City(0))}};
  for (const char* tail : kFig4Tails) {
    const std::string query = std::string(kFig4Head) + tail;
    // Planner on (end-filtered) vs off (no seed or end restriction): the
    // same multiset of rows.
    EngineOptions on = Options(true, 1);
    EngineOptions off = on;
    off.use_planner = false;
    Result<MatchOutput> a = Execute(g, query, on, params);
    Result<MatchOutput> b = Execute(g, query, off, params);
    ASSERT_TRUE(a.ok() && b.ok());
    std::vector<std::string> ra = OrderedRows(*a, g);
    std::vector<std::string> rb = OrderedRows(*b, g);
    std::sort(ra.begin(), ra.end());
    std::sort(rb.begin(), rb.end());
    EXPECT_EQ(ra, rb) << query;

    Result<std::string> text =
        Engine(g, on).ExplainAnalyze(query, params);
    ASSERT_TRUE(text.ok());
    Result<planner::ExplainedPlan> plan = planner::ParseExplain(*text);
    ASSERT_TRUE(plan.ok());
    ASSERT_EQ(plan->decls.size(), 2u);
    const planner::ExplainedDecl& path_decl = plan->decls[1];
    EXPECT_EQ(path_decl.end, "bound:y") << *text;
    // One witness at most per bound (x, y) pair, and the co-location step
    // binds every unblocked x with every blocked y of the city.
    EXPECT_LE(path_decl.actual_rows, plan->decls[0].actual_rows) << *text;
  }
}

TEST(EndFilterTest, MatchCutIsTheSequentialPrefixOnReach) {
  PropertyGraph g = MakeRandomGraph(40, 120, 3, 0.25, 4);
  const std::string query = "MATCH ANY (x)-[:L0|L1]->+(y)";
  EngineOptions base = Options(true, 1);
  base.on_budget = EngineOptions::BudgetPolicy::kTruncate;
  base.matcher.max_matches = 25;
  Result<MatchOutput> want = Execute(g, query, base);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(want->truncated);
  for (size_t threads : kThreadCounts) {
    EngineOptions options = base;
    options.num_threads = threads;
    Result<MatchOutput> got = Execute(g, query, options);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_TRUE(got->truncated);
    EXPECT_EQ(OrderedRows(*got, g), OrderedRows(*want, g))
        << "threads=" << threads;
  }
}

// --- Target side -------------------------------------------------------------

/// The side a reach-eligible declaration is expected to run on, or the
/// scalar BFS for an ineligible one.
enum class Side { kTargets, kSeeds, kScalar };

/// Runs `query` through RunPattern from `seeds` (nullptr: default seeding)
/// to `ends`: on the scalar oracle (`use_batch` off, one thread), and on
/// the fast routes at every thread count, which must take `side`, deliver
/// the oracle's rows byte for byte, and charge one step total. Returns the
/// oracle's rows.
std::vector<std::string> ExpectSideIdentity(const PropertyGraph& g,
                                            const std::string& query,
                                            const std::vector<NodeId>* seeds,
                                            const std::vector<NodeId>& ends,
                                            Side side) {
  Compiled c = Compile(g, query);
  MatcherOptions oracle_options;
  oracle_options.use_batch = false;
  Result<MatchSet> oracle =
      RunPattern(g, c.program, *c.vars, oracle_options, seeds, nullptr,
                 nullptr, nullptr, nullptr, &ends);
  EXPECT_TRUE(oracle.ok()) << query << ": " << oracle.status();
  if (!oracle.ok()) return {};
  const std::vector<std::string> want = Rendered(*oracle, g, *c.vars);
  size_t steps = 0;
  for (size_t threads : kThreadCounts) {
    MatcherOptions options;
    options.num_threads = threads;
    options.min_seeds_per_shard = 1;
    MatchStats stats;
    Result<MatchSet> got = RunPattern(g, c.program, *c.vars, options, seeds,
                                      &stats, nullptr, nullptr, nullptr,
                                      &ends);
    EXPECT_TRUE(got.ok()) << query << ": " << got.status();
    if (!got.ok()) continue;
    const std::string cell = query + " threads=" + std::to_string(threads) +
                             " on " + g.Summary();
    EXPECT_EQ(stats.route, side == Side::kScalar ? MatchRoute::kScalar
                                                 : MatchRoute::kReach)
        << cell;
    EXPECT_EQ(stats.reach_from_targets, side == Side::kTargets) << cell;
    EXPECT_EQ(Rendered(*got, g, *c.vars), want) << cell;
    if (threads == 1) steps = stats.steps;
    EXPECT_EQ(stats.steps, steps) << cell;
  }
  return want;
}

/// Every node of `g`, in id order: an explicit seed list longer than any
/// end filter below.
std::vector<NodeId> AllNodes(const PropertyGraph& g) {
  std::vector<NodeId> all(g.num_nodes());
  for (NodeId n = 0; n < g.num_nodes(); ++n) all[n] = n;
  return all;
}

/// A final node joined to the start (`(x)...(x)`) keeps the seed side.
Side EligibleSide(const std::string& query) {
  return query.size() >= 3 && query.compare(query.size() - 3, 3, "(x)") == 0
             ? Side::kSeeds
             : Side::kTargets;
}

TEST(TargetSideTest, RandomMultigraphsMatchScalar) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    PropertyGraph g = MakeRandomGraph(40, 120, 3, 0.25, seed);
    const std::vector<NodeId> seeds = AllNodes(g);
    std::vector<NodeId> ends;
    for (NodeId n = static_cast<NodeId>(seed % 5); n < g.num_nodes(); n += 5) {
      ends.push_back(n);
    }
    size_t rows = 0;
    for (const char* query : kEligible) {
      rows += ExpectSideIdentity(g, query, &seeds, ends, EligibleSide(query))
                  .size();
    }
    EXPECT_GT(rows, 0u) << g.Summary();
  }
}

TEST(TargetSideTest, SelfLoopsParallelEdgesAndOrientations) {
  PropertyGraph g = LoopGraph();  // a=0 b=1 c=2 d=3 iso=4.
  const std::vector<NodeId> seeds = AllNodes(g);
  for (const std::vector<NodeId>& ends :
       {std::vector<NodeId>{0, 2, 3}, std::vector<NodeId>{1},
        std::vector<NodeId>{3, 4}}) {
    for (const char* query : {
             "MATCH ANY (x)-[:L0]->+(y)",
             "MATCH ANY SHORTEST (x)<-[]-+(y)",
             "MATCH ANY (x)<-[:L0]-{1,3}(y)",
             "MATCH ANY (x)~[]~+(y)",
             "MATCH ANY SHORTEST (x)-[]-+(y)",
             "MATCH ANY (x)<-[]->+(y)",
             "MATCH ANY (x)-[:L0]->()<-[:L1]-+(y)",
         }) {
      ExpectSideIdentity(g, query, &seeds, ends, Side::kTargets);
    }
    for (const char* query : kEligible) {
      ExpectSideIdentity(g, query, &seeds, ends, EligibleSide(query));
    }
  }
}

TEST(TargetSideTest, BoundedQuantifiers) {
  for (uint64_t seed : {5u, 6u}) {
    PropertyGraph g = MakeRandomGraph(30, 90, 2, 0.2, seed);
    const std::vector<NodeId> seeds = AllNodes(g);
    const std::vector<NodeId> ends = {2, 9, 17, 25};
    for (const char* query : {
             "MATCH ANY (x)-[]->{2,4}(y)",
             "MATCH ANY SHORTEST (x)-[:L0|L1]-{2,4}(y)",
             "MATCH ANY (x)<-[:L1]-{3}(y)",
         }) {
      EXPECT_FALSE(
          ExpectSideIdentity(g, query, &seeds, ends, Side::kTargets).empty())
          << query;
    }
  }
}

TEST(TargetSideTest, SeedInsideTheEndFilterHasALengthZeroWitness) {
  PropertyGraph g = MakeRandomGraph(30, 90, 2, 0.2, 8);
  std::vector<NodeId> seeds;
  for (NodeId n = 0; n < 20; ++n) seeds.push_back(n);
  const std::vector<NodeId> ends = {0, 5, 10, 26};
  for (const char* query : {
           "MATCH ANY (x)-[:L0]->*(y)",
           "MATCH ANY SHORTEST p = (x)-[]->*(y)",
           "MATCH ANY (x)-[]-{0,2}(y)",
       }) {
    ExpectSideIdentity(g, query, &seeds, ends, Side::kTargets);
    Compiled c = Compile(g, query);
    MatcherOptions options;
    Result<MatchSet> got = RunPattern(g, c.program, *c.vars, options, &seeds,
                                      nullptr, nullptr, nullptr, nullptr,
                                      &ends);
    ASSERT_TRUE(got.ok()) << got.status();
    size_t empty_paths = 0;
    for (const PathBinding& pb : got->bindings) {
      if (pb.path.Length() == 0) ++empty_paths;
    }
    EXPECT_EQ(empty_paths, 3u) << query;  // Seeds 0, 5 and 10.
  }
}

TEST(TargetSideTest, KernelsAndIneligibleShapes) {
  PropertyGraph g = MakeRandomGraph(40, 120, 3, 0.25, 2);
  const std::vector<NodeId> seeds = AllNodes(g);
  const std::vector<NodeId> ends = {1, 7, 13, 22, 38};
  // Node kernels on the start and final nodes, a label on an interior one.
  for (const char* query : {
           "MATCH ANY SHORTEST (x WHERE x.w < 50)-[:L2|L0]->{1,4}"
           "(y WHERE y.w >= 30)",
           "MATCH ANY (x)-[]->(:L1)-[:L1]->+(y WHERE y.w < 80)",
       }) {
    ExpectSideIdentity(g, query, &seeds, ends, Side::kTargets);
  }
  // An edge WHERE needs a named edge variable, which keeps the scalar BFS.
  ExpectSideIdentity(g, "MATCH ANY (x)-[e:L0 WHERE e.w > 30]->+(y)", &seeds,
                     ends, Side::kScalar);
  // A cycle back to the start needs the seed inside the search.
  ExpectSideIdentity(g, "MATCH ANY (x)-[]->+(x)", &seeds, ends, Side::kSeeds);
  ExpectSideIdentity(g, "MATCH ANY SHORTEST (x)-[:L1]-{2,}(x)", &seeds, ends,
                     Side::kSeeds);
}

TEST(TargetSideTest, MatchCutIsTheSequentialPrefix) {
  PropertyGraph g = MakeRandomGraph(40, 120, 3, 0.25, 3);
  const std::vector<NodeId> seeds = AllNodes(g);
  const std::vector<NodeId> ends = {3, 11, 19, 27, 35};
  Compiled c = Compile(g, "MATCH ANY (x)-[:L0|L1]->+(y)");
  MatcherOptions options;
  options.min_seeds_per_shard = 1;
  Result<MatchSet> full = RunPattern(g, c.program, *c.vars, options, &seeds,
                                     nullptr, nullptr, nullptr, nullptr,
                                     &ends);
  ASSERT_TRUE(full.ok());
  // The sequential discovery order is seed by seed, each seed's witnesses
  // by length; the delivered rows are its first `cap`, sorted by length.
  const size_t cap = full->bindings.size() / 2;
  ASSERT_GT(cap, 0u);
  std::vector<PathBinding> order = full->bindings;
  std::stable_sort(order.begin(), order.end(),
                   [](const PathBinding& a, const PathBinding& b) {
                     return a.path.Start() < b.path.Start();
                   });
  MatchSet want;
  want.bindings.assign(order.begin(), order.begin() + static_cast<long>(cap));
  std::stable_sort(want.bindings.begin(), want.bindings.end(),
                   [](const PathBinding& a, const PathBinding& b) {
                     return a.path.Length() < b.path.Length();
                   });
  options.max_matches = cap;
  for (size_t threads : kThreadCounts) {
    options.num_threads = threads;
    MatchStats stats;
    bool exhausted = false;
    Result<MatchSet> got = RunPattern(g, c.program, *c.vars, options, &seeds,
                                      &stats, nullptr, nullptr, &exhausted,
                                      &ends);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_TRUE(stats.reach_from_targets);
    EXPECT_TRUE(exhausted) << "threads=" << threads;
    EXPECT_EQ(Rendered(*got, g, *c.vars), Rendered(want, g, *c.vars))
        << "threads=" << threads;
    // Without partial delivery the same cut is an error.
    EXPECT_EQ(RunPattern(g, c.program, *c.vars, options, &seeds, nullptr,
                         nullptr, nullptr, nullptr, &ends)
                  .status()
                  .code(),
              StatusCode::kResourceExhausted);
  }
}

}  // namespace
}  // namespace gpml

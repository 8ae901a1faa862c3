// The step budget (MatcherOptions::max_steps) holds exactly on every route:
// a matrix over {num_threads 1,2,4,8} x {use_batch} x
// {Execute, Open + drain} x {kError, kTruncate}. Every cell pins its thread
// count and sets min_seeds_per_shard = 1, so the multi-threaded cells really
// shard (docs/parallel.md). max_steps bounds each declaration's matcher
// call: a cap below the costliest declaration's uncapped step count must
// fail the call (kError) or flag a truncated result whose rows all appear
// in the full result (kTruncate) — never deliver silently. The uncapped
// step count itself is the same at every thread count.

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "eval/engine.h"
#include "graph/generator.h"
#include "planner/explain.h"

namespace gpml {
namespace {

// A fixed-length 2-hop pattern (stream mode; batch-eligible), the Figure 4
// quantified transfer chain (kBatch cursor; reachability route with
// use_batch, scalar BFS without), and the whole Figure 4 query, whose
// chain has both ends bound by the co-location step and so runs the
// reachability route from its fewer blocked ends (one shard).
const char* kQueries[] = {
    "MATCH (x:Account)-[:Transfer]->(y:Account)-[:Transfer]->(z:Account)",
    "MATCH ANY (x:Account WHERE x.isBlocked='no')-[:Transfer]->+"
    "(y:Account WHERE y.isBlocked='yes')",
    "MATCH (x:Account WHERE x.isBlocked='no')-[:isLocatedIn]->"
    "(g:City WHERE g.name='Ankh-Morpork')<-[:isLocatedIn]-"
    "(y:Account WHERE y.isBlocked='yes'), ANY (x)-[:Transfer]->+(y)",
};

enum class Route { kExecute, kOpen };

struct Outcome {
  Status status;
  std::vector<std::string> rows;
  bool truncated = false;
  size_t steps = 0;
};

Result<MatchOutput> Materialize(const PreparedQuery& q, Route route) {
  if (route == Route::kExecute) return q.Execute();
  GPML_ASSIGN_OR_RETURN(Cursor cursor, q.Open());
  return cursor.Drain();
}

Outcome RunCell(const PropertyGraph& g, const std::string& query, Route route,
            const EngineOptions& options) {
  EngineMetrics metrics;
  EngineOptions opts = options;
  opts.metrics = &metrics;
  Outcome run;
  Result<PreparedQuery> q = Engine(g, opts).Prepare(query);
  if (!q.ok()) {
    run.status = q.status();
    return run;
  }
  Result<MatchOutput> out = Materialize(*q, route);
  run.steps = metrics.matcher_steps;
  if (!out.ok()) {
    run.status = out.status();
    return run;
  }
  run.truncated = out->truncated;
  for (const ResultRow& row : out->rows) {
    std::string s;
    for (const auto& pb : row.bindings) s += pb->ToString(g, *out->vars) + "|";
    run.rows.push_back(std::move(s));
  }
  return run;
}

/// The steps of the costliest declaration, from EXPLAIN ANALYZE:
/// max_steps bounds each declaration's RunPattern call, so a cap trips
/// when it is below this figure.
size_t LargestDeclSteps(const PropertyGraph& g, const std::string& query,
                        const EngineOptions& options) {
  Result<std::string> text = Engine(g, options).ExplainAnalyze(query);
  EXPECT_TRUE(text.ok()) << query << ": " << text.status();
  if (!text.ok()) return 0;
  Result<planner::ExplainedPlan> plan = planner::ParseExplain(*text);
  EXPECT_TRUE(plan.ok()) << plan.status();
  long largest = 0;
  for (const planner::ExplainedDecl& d : plan->decls) {
    largest = std::max(largest, d.actual_steps);
  }
  return static_cast<size_t>(largest);
}

TEST(BudgetTest, StepCapHoldsExactlyOnEveryRoute) {
  FraudGraphOptions graph_options;
  graph_options.num_accounts = 60;
  PropertyGraph g = MakeFraudGraph(graph_options);

  for (const char* query : kQueries) {
    std::map<std::string, size_t> one_thread_steps;  // By batch and route.
    for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      for (bool batch : {true, false}) {
        for (Route route : {Route::kExecute, Route::kOpen}) {
          std::string cell =
              std::string(query) + " threads=" + std::to_string(threads) +
              " batch=" + std::to_string(batch) +
              (route == Route::kExecute ? " Execute" : " Open");
          EngineOptions options;
          options.num_threads = threads;
          options.use_batch = batch;
          options.matcher.min_seeds_per_shard = 1;
          options.slow_query_ms = -1;

          Outcome full = RunCell(g, query, route, options);
          ASSERT_TRUE(full.status.ok()) << cell << ": " << full.status;
          ASSERT_FALSE(full.truncated) << cell;
          const size_t s = full.steps;
          ASSERT_GT(s, 1u) << cell;
          const std::string variant =
              std::to_string(batch) + std::to_string(route == Route::kOpen);
          if (threads == 1) one_thread_steps[variant] = s;
          EXPECT_EQ(s, one_thread_steps[variant]) << cell;
          const std::set<std::string> full_rows(full.rows.begin(),
                                                full.rows.end());

          // The uncapped step count is itself within budget.
          options.matcher.max_steps = s;
          Outcome exact = RunCell(g, query, route, options);
          EXPECT_TRUE(exact.status.ok()) << cell << ": " << exact.status;
          EXPECT_FALSE(exact.truncated) << cell;

          const size_t top = LargestDeclSteps(g, query, options);
          ASSERT_GT(top, 1u) << cell;
          for (size_t cap : {size_t{1}, top - 1}) {
            std::string capped = cell + " max_steps=" + std::to_string(cap);
            options.matcher.max_steps = cap;

            options.on_budget = EngineOptions::BudgetPolicy::kError;
            Outcome failed = RunCell(g, query, route, options);
            EXPECT_EQ(failed.status.code(), StatusCode::kResourceExhausted)
                << capped << " kError: " << failed.status << ", "
                << failed.rows.size() << " rows";
            EXPECT_GT(failed.steps, cap) << capped << " kError";

            options.on_budget = EngineOptions::BudgetPolicy::kTruncate;
            Outcome partial = RunCell(g, query, route, options);
            ASSERT_TRUE(partial.status.ok())
                << capped << " kTruncate: " << partial.status;
            EXPECT_TRUE(partial.truncated)
                << capped << " kTruncate: " << partial.rows.size()
                << " of " << full.rows.size() << " rows, unflagged";
            for (const std::string& row : partial.rows) {
              EXPECT_EQ(full_rows.count(row), 1u)
                  << capped << " kTruncate: row not in the full result: "
                  << row;
            }
            options.on_budget = EngineOptions::BudgetPolicy::kError;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace gpml

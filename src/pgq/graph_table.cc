#include "pgq/graph_table.h"

#include <cctype>

#include "gql/host_surface.h"
#include "gql/result_table.h"
#include "parser/parser.h"
#include "planner/explain.h"

namespace gpml {

Result<Table> GraphTable(const Catalog& catalog, const GraphTableQuery& query,
                         EngineOptions options) {
  GPML_ASSIGN_OR_RETURN(std::shared_ptr<const PropertyGraph> graph,
                        catalog.GetGraph(query.graph));
  Engine engine(*graph, options);
  std::string rest;
  if (planner::StripExplainPrefix(query.match, &rest)) {
    std::string analyzed;
    if (planner::StripAnalyzePrefix(rest, &analyzed)) {
      // ANALYZE executes the MATCH part only (COLUMNS is ignored, as for
      // plain EXPLAIN): COLUMNS-only parameter bindings are dropped, any
      // other stray name is the usual unknown-parameter error.
      GPML_ASSIGN_OR_RETURN(GraphPattern pattern,
                            ParseGraphPattern(analyzed));
      GPML_ASSIGN_OR_RETURN(std::vector<ReturnItem> items,
                            ParseColumns(query.columns));
      GPML_ASSIGN_OR_RETURN(
          Params pattern_params,
          PatternOnlyParams(CollectPatternParams(pattern),
                            CollectItemParams(items), query.params));
      GPML_ASSIGN_OR_RETURN(std::string text,
                            engine.ExplainAnalyze(pattern, pattern_params));
      return planner::ExplainTable(text);
    }
    GPML_ASSIGN_OR_RETURN(std::string text, engine.Explain(rest));
    return planner::ExplainTable(text);
  }
  // Prepare-bind-cursor: one compiled plan per parameterized match text
  // (shared via the graph's plan cache), values bound per call, rows
  // streamed through the COLUMNS projection.
  GPML_ASSIGN_OR_RETURN(PreparedQuery prepared, engine.Prepare(query.match));
  GPML_ASSIGN_OR_RETURN(std::vector<ReturnItem> items,
                        ParseColumns(query.columns));
  prepared.ExtendSignature(CollectItemParams(items));
  GPML_ASSIGN_OR_RETURN(Cursor cursor,
                        prepared.Open(query.params, query.limit));
  // SQL semantics: GRAPH_TABLE yields a bag; no implicit DISTINCT.
  return ProjectCursor(cursor, *graph, items, /*distinct=*/false,
                       query.limit);
}

Result<std::string> GraphTableMetricsText(const Catalog& catalog,
                                          const std::string& graph) {
  GPML_ASSIGN_OR_RETURN(std::shared_ptr<const PropertyGraph> g,
                        catalog.GetGraph(graph));
  return HostMetricsText(*g);
}

Result<analysis::DiagnosticList> GraphTableLint(const Catalog& catalog,
                                                const GraphTableQuery& query,
                                                EngineOptions options) {
  GPML_ASSIGN_OR_RETURN(std::shared_ptr<const PropertyGraph> graph,
                        catalog.GetGraph(query.graph));
  return HostLint(*graph, options, query.match);
}

Result<std::vector<obs::SlowQueryRecord>> GraphTableSlowQueries(
    const Catalog& catalog, const std::string& graph,
    const obs::SlowQueryLog* log) {
  GPML_ASSIGN_OR_RETURN(std::shared_ptr<const PropertyGraph> g,
                        catalog.GetGraph(graph));
  return HostSlowQueries(*g, log);
}

Result<std::vector<obs::QueryStatEntry>> GraphTableQueryStats(
    const Catalog& catalog, const std::string& graph,
    const obs::QueryStatsStore* store) {
  GPML_ASSIGN_OR_RETURN(std::shared_ptr<const PropertyGraph> g,
                        catalog.GetGraph(graph));
  return HostQueryStats(*g, store);
}

Result<GraphTableQuery> ParseGraphTableCall(const std::string& sql) {
  // Lightweight surface parser: GRAPH_TABLE ( <name> , MATCH <pattern...>
  // COLUMNS ( <items> ) ) with arbitrary whitespace/case.
  auto find_ci = [&](const std::string& needle, size_t from) {
    for (size_t i = from; i + needle.size() <= sql.size(); ++i) {
      bool match = true;
      for (size_t j = 0; j < needle.size(); ++j) {
        if (std::toupper(sql[i + j]) != std::toupper(needle[j])) {
          match = false;
          break;
        }
      }
      if (match) return i;
    }
    return std::string::npos;
  };

  size_t gt = find_ci("GRAPH_TABLE", 0);
  if (gt == std::string::npos) {
    return Status::SyntaxError("expected GRAPH_TABLE(...)");
  }
  size_t open = sql.find('(', gt);
  if (open == std::string::npos) {
    return Status::SyntaxError("expected ( after GRAPH_TABLE");
  }
  size_t comma = sql.find(',', open);
  if (comma == std::string::npos) {
    return Status::SyntaxError("expected graph name argument");
  }
  GraphTableQuery q;
  q.graph = sql.substr(open + 1, comma - open - 1);
  // Trim whitespace.
  while (!q.graph.empty() && std::isspace(static_cast<unsigned char>(
                                 q.graph.front()))) {
    q.graph.erase(q.graph.begin());
  }
  while (!q.graph.empty() &&
         std::isspace(static_cast<unsigned char>(q.graph.back()))) {
    q.graph.pop_back();
  }

  size_t columns_kw = find_ci("COLUMNS", comma);
  if (columns_kw == std::string::npos) {
    return Status::SyntaxError("expected COLUMNS clause");
  }
  q.match = sql.substr(comma + 1, columns_kw - comma - 1);

  size_t cols_open = sql.find('(', columns_kw);
  if (cols_open == std::string::npos) {
    return Status::SyntaxError("expected ( after COLUMNS");
  }
  // Match the closing parenthesis of the COLUMNS list.
  int depth = 1;
  size_t i = cols_open + 1;
  for (; i < sql.size() && depth > 0; ++i) {
    if (sql[i] == '(') ++depth;
    if (sql[i] == ')') --depth;
  }
  if (depth != 0) return Status::SyntaxError("unbalanced COLUMNS list");
  q.columns = sql.substr(cols_open + 1, i - cols_open - 2);
  return q;
}

}  // namespace gpml

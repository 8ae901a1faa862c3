#include "gql/session.h"

#include "gql/host_surface.h"
#include "gql/result_table.h"
#include "parser/parser.h"
#include "planner/explain.h"

namespace gpml {

Status Session::UseGraph(const std::string& name) {
  GPML_ASSIGN_OR_RETURN(graph_, catalog_.GetGraph(name));
  return Status::OK();
}

Result<PreparedStatement> Session::Prepare(
    const std::string& statement) const {
  if (graph_ == nullptr) {
    return Status::InvalidArgument("no graph selected; call UseGraph first");
  }
  GPML_ASSIGN_OR_RETURN(MatchStatement stmt, ParseStatement(statement));
  Engine engine(*graph_, options_);
  GPML_ASSIGN_OR_RETURN(PreparedQuery query, engine.Prepare(stmt.pattern));
  // RETURN items may reference parameters the pattern does not.
  query.ExtendSignature(CollectItemParams(stmt.return_items));
  return PreparedStatement(graph_, std::move(query), std::move(stmt));
}

Result<Table> PreparedStatement::Execute(const Params& params) const {
  // LIMIT pushes into the cursor when the projection is row-for-row (no
  // DISTINCT); DISTINCT must keep pulling until enough distinct projected
  // rows arrived, so the cursor stays unbounded and the projection stops.
  std::optional<uint64_t> cursor_limit =
      stmt_.return_distinct ? std::nullopt : stmt_.limit;
  GPML_ASSIGN_OR_RETURN(Cursor cursor, query_.Open(params, cursor_limit));
  if (!stmt_.has_return) {
    GPML_ASSIGN_OR_RETURN(MatchOutput output, cursor.Drain());
    return ProjectAllVariables(output, *graph_);
  }
  return ProjectCursor(cursor, *graph_, stmt_.return_items,
                       stmt_.return_distinct, stmt_.limit);
}

Result<Table> Session::Execute(const std::string& statement,
                               const Params& params) const {
  if (graph_ == nullptr) {
    return Status::InvalidArgument("no graph selected; call UseGraph first");
  }
  std::string rest;
  if (planner::StripExplainPrefix(statement, &rest)) {
    GPML_ASSIGN_OR_RETURN(std::string text, Explain(rest, params));
    return planner::ExplainTable(text);
  }
  GPML_ASSIGN_OR_RETURN(PreparedStatement prepared, Prepare(statement));
  return prepared.Execute(params);
}

Result<MatchOutput> Session::Match(const std::string& match_text) const {
  if (graph_ == nullptr) {
    return Status::InvalidArgument("no graph selected; call UseGraph first");
  }
  Engine engine(*graph_, options_);
  return engine.Match(match_text);
}

Result<analysis::DiagnosticList> Session::Lint(
    const std::string& match_text) const {
  if (graph_ == nullptr) {
    return Status::InvalidArgument("no graph selected; call UseGraph first");
  }
  return HostLint(*graph_, options_, match_text);
}

Result<std::string> Session::MetricsText() const {
  if (graph_ == nullptr) {
    return Status::InvalidArgument("no graph selected; call UseGraph first");
  }
  return HostMetricsText(*graph_);
}

Result<std::vector<obs::SlowQueryRecord>> Session::SlowQueries() const {
  if (graph_ == nullptr) {
    return Status::InvalidArgument("no graph selected; call UseGraph first");
  }
  return HostSlowQueries(*graph_, options_.slow_log);
}

Result<std::vector<obs::QueryStatEntry>> Session::QueryStats() const {
  if (graph_ == nullptr) {
    return Status::InvalidArgument("no graph selected; call UseGraph first");
  }
  return HostQueryStats(*graph_, options_.query_stats);
}

Result<std::string> Session::Explain(const std::string& statement,
                                     const Params& params) const {
  if (graph_ == nullptr) {
    return Status::InvalidArgument("no graph selected; call UseGraph first");
  }
  std::string text = statement;
  std::string rest;
  if (planner::StripExplainPrefix(text, &rest)) text = rest;
  bool analyze = false;
  if (planner::StripAnalyzePrefix(text, &rest)) {
    analyze = true;
    text = rest;
  }
  GPML_ASSIGN_OR_RETURN(MatchStatement stmt, ParseStatement(text));
  Engine engine(*graph_, options_);
  if (!analyze) return engine.Explain(stmt.pattern);
  // ANALYZE executes the MATCH part only (RETURN is parsed, not
  // evaluated, mirroring EXPLAIN): bindings for RETURN-only parameters
  // are dropped, but a name the statement never references is still the
  // usual unknown-parameter error.
  GPML_ASSIGN_OR_RETURN(
      Params pattern_params,
      PatternOnlyParams(CollectPatternParams(stmt.pattern),
                        CollectItemParams(stmt.return_items), params));
  return engine.ExplainAnalyze(stmt.pattern, pattern_params);
}

}  // namespace gpml

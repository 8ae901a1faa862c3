#include "gql/host_surface.h"

#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/snapshot_filter.h"
#include "planner/explain.h"

namespace gpml {

std::string HostMetricsText(const PropertyGraph& g) {
  return obs::RenderPrometheus(*g.metrics_registry());
}

std::vector<obs::SlowQueryRecord> HostSlowQueries(
    const PropertyGraph& g, const obs::SlowQueryLog* log) {
  const obs::SlowQueryLog& source =
      log != nullptr ? *log : obs::GlobalSlowQueryLog();
  return obs::FilterByGraphToken(source.Snapshot(), g.identity_token());
}

std::vector<obs::QueryStatEntry> HostQueryStats(
    const PropertyGraph& g, const obs::QueryStatsStore* store) {
  const obs::QueryStatsStore& source =
      store != nullptr ? *store : obs::GlobalQueryStats();
  return obs::FilterByGraphToken(source.Snapshot(), g.identity_token());
}

analysis::DiagnosticList HostLint(const PropertyGraph& g,
                                  const EngineOptions& options,
                                  const std::string& match_text) {
  std::string text = match_text;
  std::string rest;
  if (planner::StripExplainPrefix(text, &rest)) text = rest;
  if (planner::StripAnalyzePrefix(text, &rest)) text = rest;
  return Engine(g, options).Lint(text);
}

}  // namespace gpml

#ifndef GPML_GQL_HOST_SURFACE_H_
#define GPML_GQL_HOST_SURFACE_H_

#include <string>
#include <vector>

#include "analysis/diagnostic.h"
#include "eval/engine.h"
#include "graph/property_graph.h"
#include "obs/query_stats.h"
#include "obs/slow_query_log.h"

namespace gpml {

/// The observability and lint surface both query hosts expose for one
/// graph — gql::Session (MetricsText, SlowQueries, QueryStats, Lint) and
/// the SQL/PGQ GraphTable* functions. The hosts only resolve the graph
/// (the session's current graph, a catalog lookup) and delegate here, so
/// the two surfaces cannot drift apart (docs/observability.md).

/// Prometheus text rendering of `g`'s metrics registry.
std::string HostMetricsText(const PropertyGraph& g);

/// The slow-query captures belonging to `g`, oldest first, from `log`
/// (null: the process-wide obs::GlobalSlowQueryLog()).
std::vector<obs::SlowQueryRecord> HostSlowQueries(const PropertyGraph& g,
                                                  const obs::SlowQueryLog* log);

/// The per-fingerprint statistics belonging to `g`, most-recently-updated
/// first, from `store` (null: the process-wide obs::GlobalQueryStats()).
std::vector<obs::QueryStatEntry> HostQueryStats(
    const PropertyGraph& g, const obs::QueryStatsStore* store);

/// The engine's full diagnostic list for `match_text` against `g`; never
/// fails (Engine::Lint). The text is linted exactly as Prepare sees it: a
/// leading EXPLAIN [ANALYZE] is stripped, not diagnosed as a parse error.
analysis::DiagnosticList HostLint(const PropertyGraph& g,
                                  const EngineOptions& options,
                                  const std::string& match_text);

}  // namespace gpml

#endif  // GPML_GQL_HOST_SURFACE_H_

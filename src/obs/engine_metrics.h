#ifndef GPML_OBS_ENGINE_METRICS_H_
#define GPML_OBS_ENGINE_METRICS_H_

#include <atomic>
#include <memory>
#include <utility>

#include "obs/metrics.h"

namespace gpml {
namespace obs {

/// The engine's families in one graph's registry (docs/observability.md),
/// resolved once per registry (PropertyGraph::metric_handles) so that an
/// execution publishes through relaxed atomic increments alone — no
/// mutex-guarded, string-keyed lookups per call. Families that exist only
/// once first observed resolve on first use instead.
struct EngineMetricHandles {
  explicit EngineMetricHandles(std::shared_ptr<MetricsRegistry> r)
      : registry(std::move(r)),
        executions(registry->GetCounter("gpml_executions_total")),
        decls(registry->GetCounter("gpml_decls_total")),
        seeded_nodes(registry->GetCounter("gpml_seeded_nodes_total")),
        matcher_steps(registry->GetCounter("gpml_matcher_steps_total")),
        reversed_decls(registry->GetCounter("gpml_reversed_decls_total")),
        seed_filtered_decls(
            registry->GetCounter("gpml_seed_filtered_decls_total")),
        index_seeded_decls(
            registry->GetCounter("gpml_index_seeded_decls_total")),
        rows(registry->GetCounter("gpml_rows_total")),
        budget_truncated(registry->GetCounter("gpml_budget_truncated_total")),
        batch_blocks(registry->GetCounter("gpml_batch_blocks_total")),
        plan_cache_hits(registry->GetCounter("gpml_plan_cache_hits_total")),
        plan_cache_misses(
            registry->GetCounter("gpml_plan_cache_misses_total")),
        querystats_observations(
            registry->GetCounter("gpml_querystats_observations_total")),
        stage_plan(registry->GetHistogram(
            "gpml_stage_duration_us{stage=\"plan\"}")),
        stage_seed(registry->GetHistogram(
            "gpml_stage_duration_us{stage=\"seed\"}")),
        stage_match(registry->GetHistogram(
            "gpml_stage_duration_us{stage=\"match\"}")),
        stage_join(registry->GetHistogram(
            "gpml_stage_duration_us{stage=\"join\"}")),
        stage_filter(registry->GetHistogram(
            "gpml_stage_duration_us{stage=\"filter\"}")),
        query_duration(registry->GetHistogram("gpml_query_duration_us")) {}

  std::shared_ptr<MetricsRegistry> registry;
  Counter* executions;
  Counter* decls;
  Counter* seeded_nodes;
  Counter* matcher_steps;
  Counter* reversed_decls;
  Counter* seed_filtered_decls;
  Counter* index_seeded_decls;
  Counter* rows;
  Counter* budget_truncated;
  Counter* batch_blocks;
  Counter* plan_cache_hits;
  Counter* plan_cache_misses;
  Counter* querystats_observations;
  // Stage-histogram series: the base metric is shared, the label selects
  // the pipeline stage (obs/prometheus.h splits them back).
  Histogram* stage_plan;
  Histogram* stage_seed;
  Histogram* stage_match;
  Histogram* stage_join;
  Histogram* stage_filter;
  Histogram* query_duration;

  Histogram* batch_survivor_rate() const {
    return Lazy(&batch_survivor_rate_, &MetricsRegistry::GetHistogram,
                "gpml_batch_survivor_rate");
  }
  Counter* slow_queries() const {
    return Lazy(&slow_queries_, &MetricsRegistry::GetCounter,
                "gpml_slow_queries_total");
  }
  Counter* querystats_evictions() const {
    return Lazy(&querystats_evictions_, &MetricsRegistry::GetCounter,
                "gpml_querystats_evictions_total");
  }
  Counter* plan_changes() const {
    return Lazy(&plan_changes_, &MetricsRegistry::GetCounter,
                "gpml_plan_changes_total");
  }
  Counter* diagnostics_emitted() const {
    return Lazy(&diagnostics_emitted_, &MetricsRegistry::GetCounter,
                "gpml_diagnostics_emitted_total");
  }

 private:
  /// Racing first uses resolve the same handle; either store wins.
  template <typename T>
  T* Lazy(std::atomic<T*>* slot, T* (MetricsRegistry::*get)(const std::string&),
          const char* name) const {
    T* handle = slot->load(std::memory_order_acquire);
    if (handle == nullptr) {
      handle = (registry.get()->*get)(name);
      slot->store(handle, std::memory_order_release);
    }
    return handle;
  }

  mutable std::atomic<Histogram*> batch_survivor_rate_{nullptr};
  mutable std::atomic<Counter*> slow_queries_{nullptr};
  mutable std::atomic<Counter*> querystats_evictions_{nullptr};
  mutable std::atomic<Counter*> plan_changes_{nullptr};
  mutable std::atomic<Counter*> diagnostics_emitted_{nullptr};
};

}  // namespace obs
}  // namespace gpml

#endif  // GPML_OBS_ENGINE_METRICS_H_

#include "eval/engine.h"

#include <algorithm>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "ast/print.h"
#include "common/source.h"
#include "eval/nfa.h"
#include "obs/clock.h"
#include "obs/engine_metrics.h"
#include "parser/parser.h"
#include "planner/explain.h"
#include "planner/stats.h"
#include "semantics/normalize.h"
#include "semantics/termination.h"

namespace gpml {

std::optional<ElementRef> RowScope::LookupSingleton(int var) const {
  for (size_t i = row_.bindings.size(); i-- > 0;) {
    const ElementRef* el = row_.bindings[i]->LastOf(var);
    if (el != nullptr) return *el;
  }
  return std::nullopt;
}

std::vector<ElementRef> RowScope::CollectGroup(int var) const {
  std::vector<ElementRef> out;
  for (const auto& pb : row_.bindings) {
    std::vector<ElementRef> part = pb->ElementsOf(var);
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

const Path* RowScope::LookupPath(int var) const {
  for (size_t i = 0; i < row_.bindings.size(); ++i) {
    if (i < output_.path_vars.size() && output_.path_vars[i] == var) {
      return &row_.bindings[i]->path;
    }
  }
  return nullptr;
}

namespace {

/// Joins the accumulated rows with the next declaration's bindings on the
/// given join variables (hash join; cross product when none). Exceeding
/// `max_rows` is an error under BudgetPolicy::kError; with `truncate` the
/// rows joined so far are returned and `*truncated` is set.
Result<std::vector<ResultRow>> JoinDecl(
    std::vector<ResultRow> rows,
    const std::vector<std::shared_ptr<const PathBinding>>& bindings,
    const std::vector<int>& join_vars, size_t max_rows, bool truncate,
    bool* truncated) {
  auto key_of_binding =
      [&](const PathBinding& pb) -> std::optional<std::vector<ElementRef>> {
    std::vector<ElementRef> key;
    key.reserve(join_vars.size());
    for (int v : join_vars) {
      const ElementRef* el = pb.LastOf(v);
      if (el == nullptr) return std::nullopt;
      key.push_back(*el);
    }
    return key;
  };
  auto hash_key = [](const std::vector<ElementRef>& key) {
    size_t h = 0x9e3779b97f4a7c15ULL;
    for (const ElementRef& r : key) h = HashCombine(h, ElementRefHash()(r));
    return h;
  };

  // Index the new declaration's bindings by join key.
  std::unordered_map<size_t, std::vector<size_t>> index;
  std::vector<std::optional<std::vector<ElementRef>>> keys(bindings.size());
  for (size_t i = 0; i < bindings.size(); ++i) {
    keys[i] = key_of_binding(*bindings[i]);
    if (keys[i].has_value()) index[hash_key(*keys[i])].push_back(i);
  }

  std::vector<ResultRow> out;
  bool stop = false;
  for (ResultRow& row : rows) {
    if (stop) break;
    std::optional<std::vector<ElementRef>> row_key;
    if (!join_vars.empty()) {
      std::vector<ElementRef> key;
      key.reserve(join_vars.size());
      bool ok = true;
      for (int v : join_vars) {
        const ElementRef* el = nullptr;
        for (size_t i = row.bindings.size(); i-- > 0 && el == nullptr;) {
          el = row.bindings[i]->LastOf(v);
        }
        if (el == nullptr) {
          ok = false;
          break;
        }
        key.push_back(*el);
      }
      if (!ok) continue;
      row_key = std::move(key);
    }

    auto extend_with = [&](size_t i) -> Status {
      ResultRow nr = row;
      nr.bindings.push_back(bindings[i]);
      out.push_back(std::move(nr));
      if (out.size() > max_rows) {
        if (truncate) {
          out.pop_back();  // Keep exactly max_rows rows.
          *truncated = true;
          stop = true;
          return Status::OK();
        }
        return Status::ResourceExhausted(
            "joined result exceeded max_rows; refine the pattern or raise "
            "EngineOptions::max_rows");
      }
      return Status::OK();
    };

    if (!row_key.has_value()) {
      for (size_t i = 0; i < bindings.size() && !stop; ++i) {
        GPML_RETURN_IF_ERROR(extend_with(i));
      }
    } else {
      auto it = index.find(hash_key(*row_key));
      if (it == index.end()) continue;
      for (size_t i : it->second) {
        if (stop) break;
        if (*keys[i] == *row_key) {
          GPML_RETURN_IF_ERROR(extend_with(i));
        }
      }
    }
  }
  return out;
}

/// Match-mode admission of one joined row (§7.1 Language Opportunity):
/// DIFFERENT EDGES requires all matched edges across the whole graph
/// pattern to be pairwise distinct, DIFFERENT NODES likewise for nodes.
/// Distinctness is over logical bindings: all occurrences of one named
/// singleton variable are a single binding (equi-joins assert equality,
/// they must not self-collide), while group-variable iterations and
/// anonymous positions each count separately — so a walk reusing an edge
/// across quantifier iterations is rejected under DIFFERENT EDGES.
bool ModeAdmitsRow(const MatchOutput& ctx, const ResultRow& row) {
  if (ctx.normalized.mode == MatchMode::kRepeatableElements) return true;
  bool edges_only = ctx.normalized.mode == MatchMode::kDifferentEdges;
  std::unordered_set<uint32_t> seen;
  std::unordered_set<uint64_t> singleton_bindings;
  for (const auto& pb : row.bindings) {
    for (const ElementaryBinding& b : pb->reduced) {
      if (b.element.is_edge() != edges_only) continue;
      const VarInfo& vi = ctx.vars->info(b.var);
      if (!vi.group && !vi.anonymous) {
        uint64_t key =
            (static_cast<uint64_t>(b.var) << 32) | b.element.id;
        if (!singleton_bindings.insert(key).second) continue;
      }
      if (!seen.insert(b.element.id).second) return false;
    }
  }
  return true;
}

/// The shared per-row tail of every execution path: match-mode filter, then
/// the final WHERE postfilter of §5.2. Batch materialization and both
/// cursor modes run every row through this in the same order, which is what
/// keeps streamed rows byte-identical to Engine::Match.
Result<bool> RowSurvives(const MatchOutput& ctx, const PropertyGraph& g,
                         const ResultRow& row) {
  if (!ModeAdmitsRow(ctx, row)) return false;
  if (ctx.normalized.where != nullptr) {
    RowScope scope(ctx, row);
    GPML_ASSIGN_OR_RETURN(
        TriBool ok,
        EvalPredicate(*ctx.normalized.where, g, *ctx.vars, scope));
    if (ok != TriBool::kTrue) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Streaming eligibility: fixed-length patterns
// ---------------------------------------------------------------------------

std::optional<uint64_t> FixedPatternLength(const PathPattern& p);

/// The edge count every match of `e` must have, nullopt when it varies.
std::optional<uint64_t> FixedElementLength(const PathElement& e) {
  switch (e.kind) {
    case PathElement::Kind::kNode:
      return 0;
    case PathElement::Kind::kEdge:
      return 1;
    case PathElement::Kind::kParen:
      return FixedPatternLength(*e.sub);
    case PathElement::Kind::kQuantified: {
      if (!e.max.has_value() || *e.max != e.min) return std::nullopt;
      std::optional<uint64_t> sub = FixedPatternLength(*e.sub);
      if (!sub.has_value()) return std::nullopt;
      return e.min * *sub;
    }
    case PathElement::Kind::kOptional: {
      std::optional<uint64_t> sub = FixedPatternLength(*e.sub);
      if (sub.has_value() && *sub == 0) return 0;
      return std::nullopt;  // 0 or |sub| edges: varies.
    }
  }
  return std::nullopt;
}

/// The edge count every match of `p` must have, nullopt when it varies.
/// Matches of a fixed-length pattern all sort equal under the merge's
/// by-path-length order, so chunked seed-order generation reproduces the
/// full run's binding order exactly — the streaming cursor's eligibility
/// test (docs/api.md).
std::optional<uint64_t> FixedPatternLength(const PathPattern& p) {
  switch (p.kind) {
    case PathPattern::Kind::kConcat: {
      uint64_t total = 0;
      for (const PathElement& e : p.elements) {
        std::optional<uint64_t> len = FixedElementLength(e);
        if (!len.has_value()) return std::nullopt;
        total += *len;
      }
      return total;
    }
    case PathPattern::Kind::kUnion:
    case PathPattern::Kind::kAlternation: {
      std::optional<uint64_t> common;
      for (const PathPatternPtr& alt : p.alternatives) {
        std::optional<uint64_t> len = FixedPatternLength(*alt);
        if (!len.has_value()) return std::nullopt;
        if (common.has_value() && *common != *len) return std::nullopt;
        common = len;
      }
      return common.has_value() ? common : std::optional<uint64_t>(0);
    }
  }
  return std::nullopt;
}

/// Resolves the index-seeding value of an anchor estimate: the planned
/// literal, or the bind-time value of the $parameter the equality compares
/// against. nullptr when the parameter is unbound or NULL (the engine then
/// falls back to label-scan seeding, which is always result-identical).
const Value* ResolveIndexValue(const planner::SeedEstimate& anchor,
                               const Params* params) {
  if (anchor.index_param.empty()) return &anchor.index_value;
  if (params == nullptr) return nullptr;
  auto it = params->find(anchor.index_param);
  if (it == params->end() || it->second.is_null()) return nullptr;
  return &it->second;
}

/// First-row chunk of the streaming cursor; chunks grow geometrically so a
/// full drain pays O(log seeds) chunk overheads while LIMIT 1 touches only
/// a handful of seeds.
constexpr size_t kFirstChunkSeeds = 8;
constexpr size_t kMaxChunkSeeds = 4096;

/// The matcher options an execution runs under: the engine's switches
/// override the matcher's own (EngineOptions::num_threads/use_batch).
MatcherOptions ExecMatcherOptions(const EngineOptions& options,
                                  size_t threads) {
  MatcherOptions m = options.matcher;
  m.num_threads = threads;
  m.use_batch = options.use_batch;
  return m;
}

// ---------------------------------------------------------------------------
// Publication: the one path every execution ends in (docs/observability.md)
// ---------------------------------------------------------------------------

uint64_t MsToUs(double ms) { return static_cast<uint64_t>(ms * 1000.0); }

/// The compile cost stored on a plan entry (replayed into the plan span).
double CompileMs(const planner::CachedPlan& plan) {
  return plan.analyze_ms + plan.plan_ms + plan.compile_ms;
}

/// The EXPLAIN exec line of a run: worker count, plan-cache hit, and the
/// batch block target (0 = scalar).
planner::ExplainExec ExecLine(size_t threads, bool cached, bool use_batch) {
  planner::ExplainExec exec;
  exec.threads = threads;
  exec.cached = cached;
  exec.batch = use_batch ? kBatchBlockTarget : 0;
  return exec;
}

/// The distinct nodes the joined rows bind to `var` (its last binding per
/// row), ascending: the seed and end filters of a bound declaration.
std::vector<NodeId> BoundNodes(const std::vector<ResultRow>& rows, int var) {
  std::unordered_set<NodeId> distinct;
  for (const ResultRow& row : rows) {
    for (size_t i = row.bindings.size(); i-- > 0;) {
      const ElementRef* el = row.bindings[i]->LastOf(var);
      if (el != nullptr) {
        if (el->is_node()) distinct.insert(el->id);
        break;
      }
    }
  }
  std::vector<NodeId> out(distinct.begin(), distinct.end());
  std::sort(out.begin(), out.end());
  return out;
}

/// The EXPLAIN ANALYZE exec line of a finished execution.
planner::ExplainExec AnalyzedExec(const ExecRecord& rec, bool use_batch) {
  planner::ExplainExec exec =
      ExecLine(rec.totals.threads, rec.cache_hit(), use_batch);
  exec.analyzed = true;
  exec.rows = rec.totals.rows;
  exec.truncated = rec.truncated();
  exec.total_ms = rec.total_ms;
  exec.plan_ms = rec.totals.plan_ms;
  return exec;
}

/// Lays out the span tree of a finished execution from its record. Spans
/// carry the measured stage durations, placed back to back in execution
/// order: parse/plan replayed at the epoch, then per declaration a decl
/// span owning its seed, per-shard and merge children, each join, and the
/// final filter. Streams do their work across pulls, so the same
/// reconstruction serves both routes.
void BuildTrace(const EngineOptions& options,
                const planner::CachedPlan& prepared, const ExecRecord& rec,
                obs::Trace* tr) {
  tr->Clear();
  const int root = tr->AddComplete("query", obs::Trace::kNoParent, 0,
                                   MsToUs(rec.total_ms));
  if (rec.stream) tr->Attr(root, "mode", "stream");
  tr->Attr(root, "threads", std::to_string(rec.totals.threads));
  tr->Attr(root, "cached", rec.cache_hit() ? "true" : "false");
  tr->Attr(root, "rows", std::to_string(rec.totals.rows));
  if (!options.tenant.empty()) tr->Attr(root, "tenant", options.tenant);
  if (!options.trace_id.empty()) tr->Attr(root, "trace_id", options.trace_id);
  if (rec.parse_ms > 0) tr->AddComplete("parse", root, 0, MsToUs(rec.parse_ms));
  const int plan_span =
      tr->AddComplete("plan", root, 0, MsToUs(CompileMs(prepared)));
  tr->Attr(plan_span, "cached", rec.cache_hit() ? "true" : "false");
  uint64_t at = 0;
  for (size_t pos = 0; pos < rec.decls.size(); ++pos) {
    const planner::DeclActual& a = rec.decls[pos];
    const int decl = tr->AddComplete("decl", root, at, MsToUs(a.ms));
    tr->Attr(decl, "decl",
             std::to_string(prepared.plan.decls[pos].decl_index));
    tr->Attr(decl, "source", a.index_seeded    ? "index"
                             : a.seed_filtered ? "bound"
                                               : "scan");
    tr->AddComplete("seed", decl, at, MsToUs(a.seed_ms));
    const uint64_t shard_start = at + MsToUs(a.seed_ms);
    double longest_shard_ms = 0;
    for (size_t i = 0; i < a.shard_ms.size(); ++i) {
      const int shard =
          tr->AddComplete("shard", decl, shard_start, MsToUs(a.shard_ms[i]));
      tr->Attr(shard, "shard", std::to_string(i));
      longest_shard_ms = std::max(longest_shard_ms, a.shard_ms[i]);
    }
    tr->AddComplete("merge", decl, shard_start + MsToUs(longest_shard_ms),
                    MsToUs(a.merge_ms));
    at += MsToUs(a.ms);
    if (pos > 0) {
      tr->AddComplete("join", root, at, MsToUs(a.join_ms));
      at += MsToUs(a.join_ms);
    }
  }
  tr->AddComplete("filter", root, at, MsToUs(rec.filter_ms));
}

/// Captures one slow execution — parameterized fingerprint, EXPLAIN
/// ANALYZE with per-declaration actuals, trace — into the configured (or
/// global) log.
void CaptureSlowQuery(const EngineOptions& options, const PropertyGraph& g,
                      const planner::CachedPlan& prepared,
                      const ExecRecord& rec, const obs::Trace& trace) {
  obs::SlowQueryRecord slow;
  slow.graph_token = g.identity_token();
  // Parameterized fingerprint: $names render as themselves, so the capture
  // never leaks bound values (matches the plan cache's keying).
  slow.fingerprint = prepared.stats_fingerprint;
  slow.total_ms = rec.total_ms;
  slow.rows = rec.totals.rows;
  const planner::ExplainExec exec = AnalyzedExec(rec, options.use_batch);
  slow.explain = planner::ExplainPlan(prepared.plan, *prepared.vars,
                                      /*stats=*/nullptr, &exec, &rec.decls,
                                      &prepared.diagnostics);
  slow.trace_json = trace.ToJsonLines();
  slow.tenant = options.tenant;
  slow.trace_id = options.trace_id;
  obs::SlowQueryLog& log = options.slow_log != nullptr
                               ? *options.slow_log
                               : obs::GlobalSlowQueryLog();
  log.Add(std::move(slow));
}

/// Folds one finished execution — success, error, or truncation — into
/// the query-stats store (EngineOptions::query_stats, defaulting to the
/// process-wide store) and counts it in the gpml_querystats_* /
/// gpml_plan_changes_total families. One short mutexed update per
/// execution; the matcher's inner loop never sees it.
void RecordQueryStats(const EngineOptions& options, const PropertyGraph& g,
                      const planner::CachedPlan& prepared,
                      const ExecRecord& rec, bool error,
                      const obs::EngineMetricHandles* handles) {
  obs::QueryObservation o;
  // Stats key: the parameterized pattern text (same discipline as the
  // slow-query fingerprint — bound values never leak), rendered once per
  // compile.
  o.fingerprint = prepared.stats_fingerprint;
  o.graph_token = g.identity_token();
  o.tenant = options.tenant;
  o.plan_hash = prepared.plan_hash;
  o.total_ms = rec.total_ms;
  o.rows = rec.totals.rows;
  o.seeds = rec.totals.seeded_nodes;
  o.steps = rec.totals.matcher_steps;
  o.error = error;
  o.truncated = !error && rec.truncated();
  o.cache_hit = rec.cache_hit();
  o.batch_engaged = rec.totals.batch_blocks > 0;
  obs::QueryStatsStore& store = options.query_stats != nullptr
                                    ? *options.query_stats
                                    : obs::GlobalQueryStats();
  obs::QueryStatsStore::RecordOutcome outcome = store.Record(o);
  if (handles == nullptr) return;
  handles->querystats_observations->Increment();
  if (outcome.evicted) handles->querystats_evictions()->Increment();
  if (outcome.plan_changed) handles->plan_changes()->Increment();
}

/// Publishes a finished execution's record. Completed executions publish
/// everything — registry counters and stage histograms, the trace (to
/// EngineOptions::trace and the sink), slow-query capture, query stats;
/// failed ones only fold into query stats: a query that dies on its step
/// budget dominated that budget, and the store exists to say so.
void Publish(const EngineOptions& options, const PropertyGraph& g,
             const planner::CachedPlan& prepared, const ExecRecord& rec,
             bool error) {
  const obs::EngineMetricHandles* h =
      options.publish_metrics ? &g.metric_handles() : nullptr;
  if (options.publish_query_stats) {
    RecordQueryStats(options, g, prepared, rec, error, h);
  }
  if (error) return;
  const bool slow =
      options.slow_query_ms >= 0 && rec.total_ms > options.slow_query_ms;
  if (h != nullptr) {
    const EngineMetrics& m = rec.totals;
    h->executions->Increment();
    h->decls->Increment(m.decls);
    h->seeded_nodes->Increment(m.seeded_nodes);
    h->matcher_steps->Increment(m.matcher_steps);
    h->reversed_decls->Increment(m.reversed_decls);
    h->seed_filtered_decls->Increment(m.seed_filtered_decls);
    h->index_seeded_decls->Increment(m.index_seeded_decls);
    h->rows->Increment(m.rows);
    h->budget_truncated->Increment(m.budget_truncated);
    h->batch_blocks->Increment(m.batch_blocks);
    if (m.batch_candidates > 0) {
      h->batch_survivor_rate()->Observe(
          100.0 * static_cast<double>(m.batch_survivors) /
          static_cast<double>(m.batch_candidates));
    }
    h->stage_plan->Observe(MsToUs(m.plan_ms));
    h->stage_seed->Observe(MsToUs(m.seed_ms));
    h->stage_match->Observe(MsToUs(m.exec_ms));
    h->stage_join->Observe(MsToUs(rec.join_ms));
    h->stage_filter->Observe(MsToUs(rec.filter_ms));
    h->query_duration->Observe(MsToUs(rec.total_ms));
    if (slow) h->slow_queries()->Increment();
  }
  // The trace is laid out only when something consumes it.
  if (options.trace == nullptr && options.trace_sink == nullptr && !slow) {
    return;
  }
  obs::Trace local_trace;
  obs::Trace* tr = options.trace != nullptr ? options.trace : &local_trace;
  BuildTrace(options, prepared, rec, tr);
  if (options.trace_sink != nullptr) options.trace_sink->Emit(*tr);
  if (slow) CaptureSlowQuery(options, g, prepared, rec, *tr);
}

}  // namespace

// ---------------------------------------------------------------------------
// ExecRecord
// ---------------------------------------------------------------------------

ExecRecord::ExecRecord(const planner::CachedPlan& plan, bool cache_hit,
                       double parse_ms, size_t threads)
    : start_us(obs::MonotonicMicros()), parse_ms(parse_ms) {
  totals.threads = threads;
  totals.plan_cache_hits = cache_hit ? 1 : 0;
  totals.plan_cache_misses = cache_hit ? 0 : 1;
  // Parsing always runs (the fingerprint needs a parsed pattern); the
  // normalize/plan/compile half was paid only on a cache miss.
  totals.plan_ms = parse_ms + (cache_hit ? 0.0 : CompileMs(plan));
}

void ExecRecord::BeginDecl(bool reversed, bool index_seeded,
                           bool seed_filtered) {
  ++totals.decls;
  if (reversed) ++totals.reversed_decls;
  if (index_seeded) ++totals.index_seeded_decls;
  if (seed_filtered) ++totals.seed_filtered_decls;
  planner::DeclActual a;
  a.index_seeded = index_seeded;
  a.seed_filtered = seed_filtered;
  a.ms = 0;
  decls.push_back(std::move(a));
}

void ExecRecord::Accumulate(const MatchStats& stats, size_t bindings) {
  totals.seeded_nodes += stats.seeds;
  totals.matcher_steps += stats.steps;
  totals.batch_blocks += stats.batch_blocks;
  totals.batch_candidates += stats.batch_candidates;
  totals.batch_survivors += stats.batch_survivors;
  totals.seed_ms += stats.seed_ms;
  totals.exec_ms += stats.match_ms;
  planner::DeclActual& a = decls.back();
  a.seeds += stats.seeds;
  a.steps += stats.steps;
  a.bindings += bindings;
  a.ms += stats.match_ms;
  a.seed_ms += stats.seed_ms;
  a.route = MatchRouteName(stats.route);
  a.reach_from = stats.route != MatchRoute::kReach ? ""
                 : stats.reach_from_targets       ? "targets"
                                                  : "seeds";
  a.merge_ms += stats.merge_ms;
  if (a.shard_ms.size() < stats.shard_ms.size()) {
    a.shard_ms.resize(stats.shard_ms.size(), 0.0);
  }
  for (size_t i = 0; i < stats.shard_ms.size(); ++i) {
    a.shard_ms[i] += stats.shard_ms[i];
  }
}

void ExecRecord::Finish() {
  total_ms = static_cast<double>(obs::MonotonicMicros() - start_us) / 1e3;
}

// ---------------------------------------------------------------------------
// Engine: prepare
// ---------------------------------------------------------------------------

Result<Engine::Analyzed> Engine::AnalyzePattern(
    const GraphPattern& pattern) const {
  Analyzed p;
  GPML_ASSIGN_OR_RETURN(p.normalized, Normalize(pattern));
  GPML_ASSIGN_OR_RETURN(p.analysis, Analyze(p.normalized));
  GPML_RETURN_IF_ERROR(CheckTermination(p.normalized, p.analysis));
  p.vars = std::make_shared<const VarTable>(p.analysis);
  return p;
}

size_t Engine::ResolvedThreads() const {
  if (options_.num_threads != 0) return options_.num_threads;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

Result<planner::Plan> Engine::PlanNormalized(const GraphPattern& normalized,
                                             const VarTable& vars) const {
  if (!options_.use_planner) {
    return planner::DirectPlan(normalized, vars);
  }
  std::shared_ptr<const planner::GraphStats> stats =
      planner::GetStats(graph_);
  planner::PlannerConfig config;
  config.use_seed_index = options_.use_seed_index;
  // Exact per-(label, key, value) counts for equality selectivities
  // (docs/planner.md): the planner reads the graph's property seed index
  // instead of the System-R constant whenever an estimate hint resolves.
  config.histograms = &graph_;
  return planner::PlanPattern(normalized, vars, *stats, config);
}

Result<std::shared_ptr<const planner::CachedPlan>> Engine::PreparePlan(
    const GraphPattern& pattern, bool* cache_hit) const {
  *cache_hit = false;
  std::string fingerprint;
  if (options_.use_plan_cache) {
    // The fingerprint is the parameterized pattern text: $name placeholders
    // render as themselves, so executions differing only in bound values
    // share one entry — the prepare-once contract.
    fingerprint = planner::PlanFingerprint(pattern, options_.use_planner,
                                           options_.use_seed_index,
                                           options_.use_analysis);
    if (std::shared_ptr<const planner::CachedPlan> cached = planner::LookupPlan(
            graph_, fingerprint,
            options_.publish_metrics ? &graph_.metric_handles() : nullptr)) {
      *cache_hit = true;
      return cached;
    }
  }
  auto entry = std::make_shared<planner::CachedPlan>();
  obs::Stopwatch analyze_clock;
  GPML_ASSIGN_OR_RETURN(Analyzed p, AnalyzePattern(pattern));
  entry->normalized = std::move(p.normalized);
  entry->vars = std::move(p.vars);
  entry->analyze_ms = analyze_clock.ElapsedMs();
  if (options_.use_analysis) {
    // Static analysis (docs/analysis.md): collect-all diagnostics over the
    // normalized pattern. Errors fail Prepare; warnings/notes are cached on
    // the entry so EXPLAIN and Lint see them on cache hits too. The pass
    // may rewrite the postfilter (dropping parameter-free TRUE conjuncts)
    // and prove the pattern empty — both recorded before planning so the
    // plan is built against the rewritten pattern.
    obs::Stopwatch analysis_clock;
    analysis::QueryAnalysis qa =
        analysis::AnalyzeQuery(entry->normalized, p.analysis, &graph_);
    entry->analysis_ms = analysis_clock.ElapsedMs();
    if (options_.publish_metrics && !qa.diagnostics.empty()) {
      graph_.metric_handles().diagnostics_emitted()->Increment(
          qa.diagnostics.size());
    }
    if (qa.diagnostics.has_errors()) {
      return Status::SemanticError(qa.diagnostics.ToString());
    }
    if (qa.postfilter_rewritten) {
      entry->normalized.where = qa.rewritten_postfilter;
    }
    entry->diagnostics = std::move(qa.diagnostics);
    entry->always_empty = qa.always_empty;
  }
  obs::Stopwatch plan_clock;
  GPML_ASSIGN_OR_RETURN(entry->plan,
                        PlanNormalized(entry->normalized, *entry->vars));
  entry->plan_ms = plan_clock.ElapsedMs();
  // Compile and graph-bind every declaration's program now, so cache hits
  // skip compilation and label-predicate binding as well as planning. The
  // entry is keyed on the graph identity token, so the bound symbol ids can
  // never be replayed against a different graph.
  obs::Stopwatch compile_clock;
  entry->programs.reserve(entry->plan.decls.size());
  for (const planner::DeclPlan& dp : entry->plan.decls) {
    GPML_ASSIGN_OR_RETURN(Program program,
                          CompilePattern(dp.decl, *entry->vars));
    // The variable table enables the batch plan (Program::batch): predicate
    // kernels and equi-join targets compile once here and ride the cache.
    BindProgramToGraph(&program, graph_, entry->vars.get());
    entry->programs.push_back(
        std::make_shared<const Program>(std::move(program)));
  }
  entry->compile_ms = compile_clock.ElapsedMs();
  // Workload-statistics identity, computed once per compile so executions
  // (cache hits included) never pay for rendering. The stats fingerprint
  // deliberately omits the planning flags the cache fingerprint embeds:
  // toggling use_seed_index keeps one stats entry while the plan hash —
  // FNV-1a of the plan's EXPLAIN rendering, diagnostics excluded so
  // warnings don't masquerade as replans — flips, which is exactly the
  // signal QueryStatsStore turns into a plan-change event.
  entry->stats_fingerprint = Print(entry->normalized);
  entry->plan_hash = obs::HashPlanText(planner::ExplainPlan(
      entry->plan, *entry->vars, /*stats=*/nullptr, /*exec=*/nullptr,
      /*actuals=*/nullptr, /*warnings=*/nullptr));
  std::shared_ptr<const planner::CachedPlan> shared = std::move(entry);
  if (options_.use_plan_cache) {
    planner::StorePlan(graph_, fingerprint, shared);
  }
  return shared;
}

Result<PreparedQuery> Engine::Prepare(const std::string& match_text) const {
  obs::Stopwatch parse_clock;
  GPML_ASSIGN_OR_RETURN(GraphPattern pattern, ParseGraphPattern(match_text));
  double parse_ms = parse_clock.ElapsedMs();
  GPML_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(pattern));
  prepared.parse_ms_ = parse_ms;
  return prepared;
}

Result<PreparedQuery> Engine::Prepare(const GraphPattern& pattern) const {
  bool cache_hit = false;
  GPML_ASSIGN_OR_RETURN(std::shared_ptr<const planner::CachedPlan> plan,
                        PreparePlan(pattern, &cache_hit));
  ParamSignature signature = CollectPatternParams(plan->normalized);
  return PreparedQuery(graph_, options_, std::move(plan),
                       std::move(signature), cache_hit);
}

// ---------------------------------------------------------------------------
// Engine: plan / explain
// ---------------------------------------------------------------------------

Result<planner::Plan> Engine::Plan(const GraphPattern& pattern) const {
  bool cache_hit = false;
  GPML_ASSIGN_OR_RETURN(std::shared_ptr<const planner::CachedPlan> prepared,
                        PreparePlan(pattern, &cache_hit));
  return prepared->plan;
}

Result<std::string> Engine::Explain(const std::string& match_text) const {
  GPML_ASSIGN_OR_RETURN(GraphPattern pattern, ParseGraphPattern(match_text));
  return Explain(pattern);
}

Result<std::string> Engine::Explain(const GraphPattern& pattern) const {
  bool cache_hit = false;
  GPML_ASSIGN_OR_RETURN(std::shared_ptr<const planner::CachedPlan> prepared,
                        PreparePlan(pattern, &cache_hit));
  planner::ExplainExec exec =
      ExecLine(ResolvedThreads(), cache_hit, options_.use_batch);
  return planner::ExplainPlan(prepared->plan, *prepared->vars,
                              /*stats=*/nullptr, &exec, /*actuals=*/nullptr,
                              &prepared->diagnostics);
}

Result<std::string> Engine::ExplainAnalyze(const std::string& match_text,
                                           const Params& params) const {
  GPML_ASSIGN_OR_RETURN(GraphPattern pattern, ParseGraphPattern(match_text));
  return ExplainAnalyze(pattern, params);
}

Result<std::string> Engine::ExplainAnalyze(const GraphPattern& pattern,
                                           const Params& params) const {
  GPML_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(pattern));
  GPML_RETURN_IF_ERROR(ValidateParams(prepared.signature_, params));
  std::shared_ptr<const Params> shared =
      params.empty() ? nullptr : std::make_shared<const Params>(params);
  const planner::CachedPlan& plan = *prepared.plan_;
  ExecRecord rec(plan, prepared.cache_hit_, /*parse_ms=*/0, ResolvedThreads());
  GPML_RETURN_IF_ERROR(ExecutePlan(plan, std::move(shared), &rec).status());
  const planner::ExplainExec exec = AnalyzedExec(rec, options_.use_batch);
  return planner::ExplainPlan(plan.plan, *plan.vars, /*stats=*/nullptr, &exec,
                              &rec.decls, &plan.diagnostics);
}

// ---------------------------------------------------------------------------
// Engine: lint
// ---------------------------------------------------------------------------

namespace {

/// A pipeline error as one diagnostic: first message line (the snippet
/// AttachSnippet appended is re-derivable from the span), with the byte
/// offset recovered from the `offset=N` marker the parser and semantic
/// passes embed.
analysis::Diagnostic StatusToDiagnostic(const char* code, const Status& st) {
  analysis::Diagnostic d;
  d.code = code;
  d.severity = analysis::Severity::kError;
  std::string message = st.message();
  size_t nl = message.find('\n');
  if (nl != std::string::npos) message.resize(nl);
  size_t offset = 0;
  if (FindOffsetMarker(message, &offset)) {
    d.span = SourceSpan{offset, offset + 1};
  }
  d.message = std::move(message);
  return d;
}

}  // namespace

analysis::DiagnosticList Engine::Lint(const std::string& match_text) const {
  analysis::DiagnosticList diags = LintImpl(match_text);
  // Every span stays inside the linted text: errors reported at end of
  // input would otherwise point one byte past it ([size, size+1)).
  for (analysis::Diagnostic& d : diags.mutable_items()) {
    if (d.span.begin > match_text.size()) d.span.begin = match_text.size();
    if (d.span.end > match_text.size()) d.span.end = match_text.size();
  }
  return diags;
}

analysis::DiagnosticList Engine::LintImpl(const std::string& match_text) const {
  analysis::DiagnosticList diags;
  Result<GraphPattern> pattern = ParseGraphPattern(match_text);
  if (!pattern.ok()) {
    diags.Add(StatusToDiagnostic(analysis::kCodeSyntax, pattern.status()));
    return diags;
  }
  Result<GraphPattern> normalized = Normalize(*pattern);
  if (!normalized.ok()) {
    diags.Add(StatusToDiagnostic(analysis::kCodeSemantic,
                                 normalized.status()));
    return diags;
  }
  Result<Analysis> sem = Analyze(*normalized);
  if (!sem.ok()) {
    diags.Add(StatusToDiagnostic(analysis::kCodeSemantic, sem.status()));
    return diags;
  }
  if (Status st = CheckTermination(*normalized, *sem); !st.ok()) {
    diags.Add(StatusToDiagnostic(analysis::kCodeSemantic, st));
    return diags;
  }
  analysis::QueryAnalysis qa =
      analysis::AnalyzeQuery(*normalized, *sem, &graph_);
  if (options_.publish_metrics && !qa.diagnostics.empty()) {
    graph_.metric_handles().diagnostics_emitted()->Increment(
        qa.diagnostics.size());
  }
  return std::move(qa.diagnostics);
}

// ---------------------------------------------------------------------------
// Engine: batch execution (the differential oracle)
// ---------------------------------------------------------------------------

Result<MatchOutput> Engine::Match(const std::string& match_text) const {
  GPML_ASSIGN_OR_RETURN(GraphPattern pattern, ParseGraphPattern(match_text));
  return Match(pattern);
}

Result<MatchOutput> Engine::Match(const GraphPattern& pattern) const {
  // The legacy one-shot call is a thin prepare-bind-drain: prepare (or hit
  // the plan cache), bind the empty parameter set, materialize.
  GPML_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(pattern));
  return prepared.Execute();
}

Result<MatchOutput> Engine::ExecutePlan(const planner::CachedPlan& prepared,
                                        std::shared_ptr<const Params> params,
                                        ExecRecord* rec) const {
  // kBatch cursors time the materialization, not the open.
  rec->start_us = obs::MonotonicMicros();
  MatchOutput out;
  out.normalized = prepared.normalized;
  out.vars = prepared.vars;
  out.params = std::move(params);
  const planner::Plan& plan = prepared.plan;
  const bool truncate =
      options_.on_budget == EngineOptions::BudgetPolicy::kTruncate;
  const MatcherOptions matcher_options =
      ExecMatcherOptions(options_, rec->totals.threads);

  // Evaluate every path declaration independently (§6.5) in plan order,
  // then join. The planner may mirror a declaration (anchor at its right
  // end) or seed it from the bindings of earlier declarations; both are
  // result-preserving (see docs/planner.md). Errors stop the pipeline but
  // still reach the publication below, with the work spent so far.
  const size_t num_decls = plan.decls.size();
  out.path_vars.assign(num_decls, -1);
  std::vector<ResultRow> rows;
  Status status;
  // Analyzer-proven empty pattern (docs/analysis.md): skip seeding, matching
  // and joining entirely; the execution still publishes its counters (0
  // seeds, 0 matcher steps, 0 rows) and a complete trace.
  for (size_t plan_pos = 0; !prepared.always_empty && plan_pos < num_decls;
       ++plan_pos) {
    const planner::DeclPlan& dp = plan.decls[plan_pos];
    const PathPatternDecl& decl = dp.decl;
    out.path_vars[static_cast<size_t>(dp.decl_index)] =
        decl.path_var.empty() ? -1 : out.vars->Find(decl.path_var);

    // Compiled with the plan (and graph-bound); cache hits reuse it as-is.
    const Program& program = *prepared.programs[plan_pos];

    // Restricted seeding: the anchor variable is already bound by earlier
    // declarations, so only those nodes can start a joinable match; failing
    // that, an anchor with an inline equality predicate seeds from the
    // (label, prop) = value hash index — the value is the planned literal
    // or the bind-time $parameter binding. Both restrictions only drop
    // starts the pattern's first node check would reject anyway.
    std::vector<NodeId> seed_filter;
    const std::vector<NodeId>* filter = nullptr;
    bool use_filter = plan_pos > 0 && dp.seed_bound_var >= 0;
    bool use_index = false;
    if (use_filter) {
      seed_filter = BoundNodes(rows, dp.seed_bound_var);
      filter = &seed_filter;
    } else if (plan.planner_used && dp.anchor.has_index()) {
      const Value* idx_value =
          ResolveIndexValue(dp.anchor, out.params.get());
      if (idx_value != nullptr) {
        use_index = true;
        filter = &graph_.IndexedNodes(dp.anchor.label, dp.anchor.index_prop,
                                      *idx_value);
      }
      // A NULL-bound parameter falls back to label-scan seeding: the inline
      // predicate itself filters (to nothing — `= NULL` is never true).
    }

    // End filtering, by the same argument from the other end: the final
    // node variable is bound too, so accepts ending at any other node could
    // never join (docs/planner.md).
    const bool use_end_filter = plan_pos > 0 && dp.end_bound_var >= 0;
    std::vector<NodeId> end_filter;
    if (use_end_filter) end_filter = BoundNodes(rows, dp.end_bound_var);

    rec->BeginDecl(dp.reversed, use_index, use_filter);
    MatchStats match_stats;
    bool decl_truncated = false;
    Result<MatchSet> match = RunPattern(
        graph_, program, *out.vars, matcher_options, filter, &match_stats,
        out.params.get(), /*shared_budget=*/nullptr,
        truncate ? &decl_truncated : nullptr,
        use_end_filter ? &end_filter : nullptr);
    rec->Accumulate(match_stats, match.ok() ? match->bindings.size() : 0);
    if (!match.ok()) {
      status = match.status();
      break;
    }
    if (decl_truncated) rec->totals.budget_truncated = 1;
    if (dp.reversed) planner::UnreverseMatchSet(&*match);

    std::vector<std::shared_ptr<const PathBinding>> bindings;
    bindings.reserve(match->bindings.size());
    for (PathBinding& pb : match->bindings) {
      bindings.push_back(std::make_shared<const PathBinding>(std::move(pb)));
    }

    if (plan_pos == 0) {
      rows.reserve(bindings.size());
      for (auto& b : bindings) {
        ResultRow r;
        r.bindings.push_back(std::move(b));
        rows.push_back(std::move(r));
      }
      continue;
    }

    obs::Stopwatch join_clock;
    bool join_truncated = false;
    Result<std::vector<ResultRow>> joined =
        JoinDecl(std::move(rows), bindings, dp.join_vars, options_.max_rows,
                 truncate, &join_truncated);
    rec->decls.back().join_ms = join_clock.ElapsedMs();
    rec->join_ms += rec->decls.back().join_ms;
    if (!joined.ok()) {
      status = joined.status();
      break;
    }
    rows = std::move(*joined);
    if (join_truncated) rec->totals.budget_truncated = 1;
  }

  if (status.ok()) {
    // Row bindings were accumulated in plan execution order; restore source
    // declaration order so hosts and RowScope index them by declaration.
    bool reordered = false;
    for (size_t i = 0; i < num_decls; ++i) {
      if (plan.decls[i].decl_index != static_cast<int>(i)) reordered = true;
    }
    if (reordered) {
      for (ResultRow& row : rows) {
        std::vector<std::shared_ptr<const PathBinding>> ordered(num_decls);
        for (size_t i = 0; i < num_decls; ++i) {
          ordered[static_cast<size_t>(plan.decls[i].decl_index)] =
              std::move(row.bindings[i]);
        }
        row.bindings = std::move(ordered);
      }
    }

    // Per-row tail: match-mode filter (§7.1) and the final WHERE (§5.2) —
    // the same RowSurvives the cursor paths stream through.
    obs::Stopwatch filter_clock;
    out.rows.reserve(rows.size());
    for (ResultRow& row : rows) {
      Result<bool> keep = RowSurvives(out, graph_, row);
      if (!keep.ok()) {
        status = keep.status();
        break;
      }
      if (*keep) out.rows.push_back(std::move(row));
    }
    rec->filter_ms = filter_clock.ElapsedMs();
  }

  out.truncated = rec->truncated();
  rec->totals.rows = status.ok() ? out.rows.size() : 0;
  rec->Finish();
  if (options_.metrics != nullptr) *options_.metrics = rec->totals;
  Publish(options_, graph_, prepared, *rec, /*error=*/!status.ok());
  if (!status.ok()) return status;
  return out;
}

// ---------------------------------------------------------------------------
// PreparedQuery
// ---------------------------------------------------------------------------

PreparedQuery::PreparedQuery(const PropertyGraph& graph,
                             EngineOptions options,
                             std::shared_ptr<const planner::CachedPlan> plan,
                             ParamSignature signature, bool cache_hit)
    : graph_(&graph),
      options_(std::move(options)),
      plan_(std::move(plan)),
      signature_(std::move(signature)),
      cache_hit_(cache_hit) {}

Result<MatchOutput> PreparedQuery::Execute(const Params& params) const {
  GPML_RETURN_IF_ERROR(ValidateParams(signature_, params));
  std::shared_ptr<const Params> shared =
      params.empty() ? nullptr : std::make_shared<const Params>(params);
  Engine engine(*graph_, options_);
  ExecRecord rec(*plan_, cache_hit_, parse_ms_, engine.ResolvedThreads());
  return engine.ExecutePlan(*plan_, std::move(shared), &rec);
}

Result<Cursor> PreparedQuery::Open(const Params& params) const {
  return Open(params, std::nullopt);
}

Result<Cursor> PreparedQuery::Open(const Params& params,
                                   std::optional<uint64_t> limit) const {
  GPML_RETURN_IF_ERROR(ValidateParams(signature_, params));
  std::shared_ptr<const Params> shared =
      params.empty() ? nullptr : std::make_shared<const Params>(params);
  return Cursor(*graph_, options_, plan_, std::move(shared), cache_hit_,
                limit, parse_ms_);
}

Result<std::string> PreparedQuery::Explain() const {
  planner::ExplainExec exec = ExecLine(
      Engine(*graph_, options_).ResolvedThreads(), cache_hit_,
      options_.use_batch);
  return planner::ExplainPlan(plan_->plan, *plan_->vars, /*stats=*/nullptr,
                              &exec, /*actuals=*/nullptr,
                              &plan_->diagnostics);
}

// ---------------------------------------------------------------------------
// Cursor
// ---------------------------------------------------------------------------

Cursor::Cursor(const PropertyGraph& graph, EngineOptions options,
               std::shared_ptr<const planner::CachedPlan> plan,
               std::shared_ptr<const Params> params, bool cache_hit,
               std::optional<uint64_t> limit, double parse_ms)
    : graph_(&graph),
      options_(std::move(options)),
      plan_(std::move(plan)),
      limit_(limit),
      record_(*plan_, cache_hit, parse_ms,
              Engine(graph, options_).ResolvedThreads()) {
  context_.normalized = plan_->normalized;
  context_.vars = plan_->vars;
  context_.params = std::move(params);
  const planner::Plan& p = plan_->plan;
  context_.path_vars.assign(p.decls.size(), -1);
  for (const planner::DeclPlan& dp : p.decls) {
    context_.path_vars[static_cast<size_t>(dp.decl_index)] =
        dp.decl.path_var.empty() ? -1 : context_.vars->Find(dp.decl.path_var);
  }

  // Streaming eligibility: a single declaration with no selector whose
  // matches all have one fixed path length. Then per-chunk merge order
  // (stable by-length sort) is the identity, chunk outputs concatenate in
  // seed order exactly like the full run's discovery order, and cross-chunk
  // duplicates cannot exist (distinct seeds; a reduced binding keeps its
  // start node) — so streamed rows are byte-identical to Execute.
  // Analyzer-proven empty plans stay in kBatch: FillBatch delegates to
  // ExecutePlan, whose always-empty early exit publishes the 0-seed /
  // 0-step execution without ever calling ComputeSeeds.
  if (!plan_->always_empty && p.decls.size() == 1 &&
      p.decls[0].decl.selector.IsNone() &&
      FixedPatternLength(*p.decls[0].decl.pattern).has_value()) {
    mode_ = Mode::kStream;
    record_.stream = true;
    const planner::DeclPlan& dp = p.decls[0];
    const std::vector<NodeId>* filter = nullptr;
    if (p.planner_used && dp.anchor.has_index()) {
      const Value* idx_value =
          ResolveIndexValue(dp.anchor, context_.params.get());
      if (idx_value != nullptr) {
        filter = &graph.IndexedNodes(dp.anchor.label, dp.anchor.index_prop,
                                     *idx_value);
      }
    }
    record_.BeginDecl(dp.reversed, /*index_seeded=*/filter != nullptr,
                      /*seed_filtered=*/false);
    MatchStats open_stats;
    obs::Stopwatch seed_clock;
    seeds_ = ComputeSeeds(graph, *plan_->programs[0], filter);
    open_stats.seed_ms = seed_clock.ElapsedMs();
    record_.Accumulate(open_stats, /*bindings=*/0);
    chunk_size_ = kFirstChunkSeeds;
    // One budget across all chunks: the stream can never execute more
    // steps or accept more matches than a single materializing call.
    budget_ = std::make_unique<SharedBudget>(options_.matcher.max_steps,
                                             options_.matcher.max_matches);
  }
  if (options_.metrics != nullptr) *options_.metrics = record_.totals;
}

Status Cursor::FillChunk() {
  staged_.clear();
  staged_pos_ = 0;
  const planner::DeclPlan& dp = plan_->plan.decls[0];
  const Program& program = *plan_->programs[0];

  const size_t count = std::min(chunk_size_, seeds_.size() - seed_pos_);
  std::vector<NodeId> chunk(seeds_.begin() + static_cast<long>(seed_pos_),
                            seeds_.begin() +
                                static_cast<long>(seed_pos_ + count));
  seed_pos_ += count;
  chunk_size_ = std::min(chunk_size_ * 2, kMaxChunkSeeds);

  const bool truncate =
      options_.on_budget == EngineOptions::BudgetPolicy::kTruncate;
  MatchStats stats;
  bool exhausted = false;
  Result<MatchSet> match = RunPattern(
      *graph_, program, *context_.vars,
      ExecMatcherOptions(options_, record_.totals.threads), &chunk, &stats,
      context_.params.get(), budget_.get(), truncate ? &exhausted : nullptr);
  // Recorded even when the run errored: RunPattern reports the steps spent
  // before a budget refusal, and downstream accounting (the server's
  // per-tenant step charging) must see them.
  record_.Accumulate(stats, match.ok() ? match->bindings.size() : 0);
  if (!match.ok()) return match.status();
  if (dp.reversed) planner::UnreverseMatchSet(&*match);

  obs::Stopwatch filter_clock;
  for (PathBinding& pb : match->bindings) {
    ResultRow row;
    row.bindings.push_back(
        std::make_shared<const PathBinding>(std::move(pb)));
    Result<bool> keep = RowSurvives(context_, *graph_, row);
    if (!keep.ok()) return keep.status();
    if (*keep) staged_.push_back(std::move(row));
  }
  record_.filter_ms += filter_clock.ElapsedMs();

  if (exhausted) {
    record_.totals.budget_truncated = 1;
    context_.truncated = true;
    seed_pos_ = seeds_.size();  // No further chunks.
  }
  return Status::OK();
}

Status Cursor::FillBatch() {
  batch_ran_ = true;
  Result<MatchOutput> out = Engine(*graph_, options_)
                                .ExecutePlan(*plan_, context_.params, &record_);
  if (!out.ok()) return out.status();
  context_.truncated = out->truncated;
  staged_ = std::move(out->rows);
  staged_pos_ = 0;
  // ExecutePlan recorded the materialized count; the cursor contract is
  // rows *emitted so far*, counted per pull in Next for both modes.
  record_.totals.rows = 0;
  return Status::OK();
}

Result<bool> Cursor::Next(RowView* view) {
  if (!status_.ok()) return status_;
  if (limit_.has_value() && record_.totals.rows >= *limit_) {
    if (!done_) {
      done_ = true;
      hit_limit_ = true;
      FinishStream(/*error=*/false);
    }
    return false;
  }
  if (done_) return false;
  while (true) {
    if (staged_pos_ < staged_.size()) {
      current_ = std::move(staged_[staged_pos_++]);
      ++record_.totals.rows;
      if (options_.metrics != nullptr) ++options_.metrics->rows;
      view->row = &current_;
      view->context = &context_;
      return true;
    }
    if (mode_ == Mode::kBatch) {
      if (batch_ran_) {
        done_ = true;
        return false;
      }
      status_ = FillBatch();
    } else {
      if (seed_pos_ >= seeds_.size()) {
        done_ = true;
        FinishStream(/*error=*/false);
        return false;
      }
      status_ = FillChunk();
    }
    if (options_.metrics != nullptr) *options_.metrics = record_.totals;
    if (!status_.ok()) {
      done_ = true;
      FinishStream(/*error=*/true);
      return status_;
    }
  }
}

void Cursor::FinishStream(bool error) {
  if (published_ || mode_ != Mode::kStream) return;
  published_ = true;
  record_.Finish();
  Publish(options_, *graph_, *plan_, record_, error);
}

Result<MatchOutput> Cursor::Drain() {
  MatchOutput out = context_;
  RowView view;
  while (true) {
    GPML_ASSIGN_OR_RETURN(bool more, Next(&view));
    if (!more) break;
    out.rows.push_back(*view.row);
  }
  out.truncated = record_.truncated();
  return out;
}

}  // namespace gpml

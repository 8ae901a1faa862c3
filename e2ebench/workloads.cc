// The three workloads (fraud_paths, lookup_hosts, server_mixed), their
// output checks, and the per-layer decomposition used by traced runs. Only
// public engine, host, and server functions are called.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <queue>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "catalog/catalog.h"
#include "eval/engine.h"
#include "eval/reference_eval.h"
#include "gql/json_export.h"
#include "gql/session.h"
#include "graph/generator.h"
#include "harness.h"
#include "parser/parser.h"
#include "pgq/graph_table.h"
#include "planner/stats.h"
#include "semantics/analyze.h"
#include "semantics/normalize.h"
#include "server/client.h"
#include "server/json.h"
#include "server/server.h"

namespace e2ebench {
namespace {

using gpml::Catalog;
using gpml::Engine;
using gpml::EngineMetrics;
using gpml::EngineOptions;
using gpml::MatchOutput;
using gpml::Params;
using gpml::PreparedQuery;
using gpml::PropertyGraph;
using gpml::Result;
using gpml::Value;

constexpr char kGraphName[] = "fraud";
// The datasets are fixed (the generator's default seed, as in the
// repository's other fraud benchmarks); --seed generates the request lists.
constexpr uint64_t kDatasetSeed = 42;

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

EngineOptions PinnedOptions() {
  EngineOptions options;
  options.num_threads = 1;  // Pinned; never hardware_concurrency().
  return options;
}

std::string OwnerName(int account) { return "u" + std::to_string(account); }

std::string CityName(int city) {
  return city == 0 ? "Ankh-Morpork" : "City" + std::to_string(city);
}

/// Generates a dataset graph, measuring its wall time and the resident
/// bytes it added per element. Bytes per element is taken from the first
/// generation in the process: repeated set-ups reuse freed heap and would
/// read low.
PropertyGraph GenerateGraph(const gpml::FraudGraphOptions& options,
                            double* generate_s, double* bytes_per_element) {
  static double first_bytes_per_element = -1;
  size_t rss_before = CurrentRssBytes();
  int64_t t0 = NowNs();
  PropertyGraph g = gpml::MakeFraudGraph(options);
  *generate_s = static_cast<double>(NowNs() - t0) / 1e9;
  size_t rss_after = CurrentRssBytes();
  if (first_bytes_per_element < 0) {
    double grown = static_cast<double>(
        rss_after > rss_before ? rss_after - rss_before : 0);
    first_bytes_per_element =
        grown / static_cast<double>(g.num_nodes() + g.num_edges());
  }
  *bytes_per_element = first_bytes_per_element;
  return g;
}

std::string GraphSummary(const PropertyGraph& g) {
  return std::to_string(g.num_nodes()) + " nodes + " +
         std::to_string(g.num_edges()) + " edges";
}

/// A generated graph registered in its own catalog (the hosts resolve it by
/// name; the engine uses the catalog's shared graph).
struct Dataset {
  Catalog catalog;
  std::shared_ptr<const PropertyGraph> graph;
  double generate_s = 0;
  double bytes_per_element = 0;

  bool Generate(const gpml::FraudGraphOptions& options) {
    PropertyGraph g = GenerateGraph(options, &generate_s, &bytes_per_element);
    if (!catalog.AddGraph(kGraphName, std::move(g)).ok()) return false;
    Result<std::shared_ptr<const PropertyGraph>> got =
        catalog.GetGraph(kGraphName);
    if (!got.ok()) return false;
    graph = *got;
    return true;
  }
};

// --- wire helpers (server_mixed and the server decomposition) -------------

/// Per-layer server counters: client roundtrip and the server's own timing
/// object, summed over pooled responses.
struct ServerStats {
  double roundtrip_ms = 0;
  double admission_ms = 0;
  double queue_ms = 0;
  double exec_ms = 0;
  double bytes = 0;
  double responses = 0;  // Pooled responses with a timing object.
  double refusals_saturated = 0;
  double refusals_quota = 0;
  double refusals_other = 0;
  double prepares = 0;
  double prepares_from_cache = 0;

  void Merge(const ServerStats& o) {
    roundtrip_ms += o.roundtrip_ms;
    admission_ms += o.admission_ms;
    queue_ms += o.queue_ms;
    exec_ms += o.exec_ms;
    bytes += o.bytes;
    responses += o.responses;
    refusals_saturated += o.refusals_saturated;
    refusals_quota += o.refusals_quota;
    refusals_other += o.refusals_other;
    prepares += o.prepares;
    prepares_from_cache += o.prepares_from_cache;
  }

  void Report(LayerMetrics* out) const {
    auto mean = [this](double total) {
      return responses > 0 ? total / responses : 0;
    };
    (*out)["server.roundtrip_ms"] = mean(roundtrip_ms);
    (*out)["server.admission_ms"] = mean(admission_ms);
    (*out)["server.queue_ms"] = mean(queue_ms);
    (*out)["server.exec_ms"] = mean(exec_ms);
    (*out)["server.wire_ms"] =
        mean(roundtrip_ms - admission_ms - queue_ms - exec_ms);
    (*out)["server.bytes_per_response"] = mean(bytes);
    (*out)["server.refusals_saturated"] = refusals_saturated;
    (*out)["server.refusals_quota"] = refusals_quota;
    (*out)["server.refusals_other"] = refusals_other;
  }
};

struct WireReply {
  bool ok = false;
  gpml::server::Client::RawResponse response;
};

/// One request line over `client`; with `stats`, the roundtrip and the
/// response's timing object are accumulated and, with `tracer`, a "server"
/// span is recorded under `parent`.
WireReply Call(gpml::server::Client* client, const std::string& line,
               ServerStats* stats, Tracer* tracer, int parent,
               int64_t request) {
  WireReply reply;
  int span = tracer != nullptr ? tracer->Begin("server", parent, request) : -1;
  int64_t t0 = NowNs();
  Result<gpml::server::Client::RawResponse> r = client->RoundTrip(line);
  int64_t t1 = NowNs();
  if (tracer != nullptr) tracer->EndAt(span, t1);
  static std::once_flag first_failure;
  if (!r.ok()) {
    std::call_once(first_failure, [&] {
      std::fprintf(stderr, "first server failure: %s\n",
                   r.status().ToString().c_str());
    });
    return reply;
  }
  reply.response = std::move(*r);
  const gpml::server::JsonValue& parsed = reply.response.parsed;
  const gpml::server::JsonValue* ok = parsed.Find("ok");
  reply.ok = ok != nullptr && ok->is_bool() && ok->bool_v;
  if (!reply.ok) {
    std::call_once(first_failure, [&] {
      std::fprintf(stderr, "first server failure: %s\n",
                   reply.response.raw.c_str());
    });
  }
  if (stats == nullptr) return reply;
  if (!reply.ok) {
    const gpml::server::JsonValue* error = parsed.Find("error");
    const gpml::server::JsonValue* reason =
        error != nullptr ? error->Find("reason") : nullptr;
    std::string why = reason != nullptr && reason->is_string()
                          ? reason->string_v
                          : std::string();
    if (why == "SERVER_SATURATED") {
      stats->refusals_saturated += 1;
    } else if (why.rfind("TENANT_", 0) == 0) {
      stats->refusals_quota += 1;
    } else {
      stats->refusals_other += 1;
    }
    return reply;
  }
  if (const gpml::server::JsonValue* timing = parsed.Find("timing")) {
    auto field = [timing](const char* key) {
      const gpml::server::JsonValue* v = timing->Find(key);
      return v != nullptr && v->is_number() ? v->AsDouble() : 0.0;
    };
    stats->roundtrip_ms += Ms(t1 - t0);
    stats->admission_ms += field("admission_ms");
    stats->queue_ms += field("queue_ms");
    stats->exec_ms += field("exec_ms");
    stats->bytes += static_cast<double>(reply.response.raw.size());
    stats->responses += 1;
  }
  if (const gpml::server::JsonValue* cached = parsed.Find("from_cache")) {
    stats->prepares += 1;
    if (cached->is_bool() && cached->bool_v) stats->prepares_from_cache += 1;
  }
  return reply;
}

std::string ParamsJson(const Params& params) {
  std::string out = "{";
  for (const auto& [name, value] : params) {
    if (out.size() > 1) out += ",";
    out += "\"" + gpml::JsonEscape(name) + "\":\"" +
           gpml::JsonEscape(value.string_value()) + "\"";
  }
  return out + "}";
}

/// The raw row objects of an execute/fetch response, appended to `rows`.
void AppendRows(const gpml::server::Client::RawResponse& response,
                std::vector<std::string>* rows) {
  const gpml::server::JsonValue* array = response.parsed.Find("rows");
  if (array == nullptr || !array->is_array()) return;
  for (const gpml::server::JsonValue& row : array->array_v) {
    rows->push_back(row.RawSpan(response.raw));
  }
}

int64_t IntField(const gpml::server::Client::RawResponse& response,
                 const char* key) {
  const gpml::server::JsonValue* v = response.parsed.Find(key);
  return v != nullptr && v->is_int() ? v->int_v : -1;
}

/// In-process expected rows: RowToJson of a materializing execution.
bool ExpectedRows(const Engine& engine, const std::string& text,
                  const Params& params, std::vector<std::string>* rows) {
  Result<PreparedQuery> prepared = engine.Prepare(text);
  if (!prepared.ok()) return false;
  Result<MatchOutput> out = prepared->Execute(params);
  if (!out.ok()) return false;
  for (const gpml::ResultRow& row : out->rows) {
    rows->push_back(gpml::RowToJson(*out, row, engine.graph()));
  }
  return true;
}

// --- per-layer decomposition ------------------------------------------------

/// One statement of a workload: MATCH text (with $params), the projection
/// used by the hosts (GQL RETURN / SQL/PGQ COLUMNS), and its bindings.
struct Statement {
  std::string match;
  std::string items;
  Params params;
};

/// Calls each layer's public function separately on the same statements:
/// parser, semantics, analysis, planner (cold and warm prepare), eval
/// (prepared execute with EngineMetrics), both hosts, RowToJson, and — when
/// `probe_server` — an in-process server over a copy of the dataset.
void DecomposeStatements(const Dataset& data,
                         const gpml::FraudGraphOptions& graph_options,
                         const std::vector<Statement>& statements, int reps,
                         bool probe_server, LayerMetrics* out) {
  const PropertyGraph& g = *data.graph;
  LayerMetrics& m = *out;
  double n = 0;
  double parse_us = 0, normalize_us = 0, analyze_us = 0;
  double cold_us = 0, warm_us = 0;
  double execute_ms = 0, seed_ms = 0, exec_ms = 0, plan_ms = 0;
  double seeds = 0, steps = 0, rows = 0, candidates = 0, survivors = 0;
  double batch_queries = 0, cache_hits = 0, cache_lookups = 0;
  double gql_ms = 0, pgq_ms = 0, json_us = 0, json_bytes = 0, json_rows = 0;

  EngineMetrics metrics;
  EngineOptions options = PinnedOptions();
  options.metrics = &metrics;
  Engine warm_engine(g, options);
  EngineOptions cold_options = options;
  cold_options.use_plan_cache = false;
  Engine cold_engine(g, cold_options);
  gpml::Session session(data.catalog, options);
  if (!session.UseGraph(kGraphName).ok()) return;

  for (const Statement& st : statements) {
    (void)warm_engine.Prepare(st.match);  // Warm prepares hit the cache.
  }
  for (int rep = 0; rep < reps; ++rep) {
    for (const Statement& st : statements) {
      std::string gql = st.match + " RETURN " + st.items;
      int64_t t0 = NowNs();
      Result<gpml::MatchStatement> parsed = gpml::ParseStatement(gql);
      int64_t t1 = NowNs();
      if (!parsed.ok()) continue;
      Result<gpml::GraphPattern> normalized = gpml::Normalize(parsed->pattern);
      if (!normalized.ok()) continue;
      Result<gpml::Analysis> analysis = gpml::Analyze(*normalized);
      int64_t t2 = NowNs();
      if (!analysis.ok()) continue;
      gpml::analysis::QueryAnalysis qa =
          gpml::analysis::AnalyzeQuery(*normalized, *analysis, &g);
      int64_t t3 = NowNs();
      (void)qa;
      Result<PreparedQuery> cold = cold_engine.Prepare(st.match);
      int64_t t4 = NowNs();
      Result<PreparedQuery> warm = warm_engine.Prepare(st.match);
      int64_t t5 = NowNs();
      if (!cold.ok() || !warm.ok() || !cold->Execute(st.params).ok()) continue;
      // A freshly compiled plan's first execution reports the compile cost.
      double compile_ms = metrics.plan_ms;
      t5 = NowNs();
      Result<MatchOutput> result = warm->Execute(st.params);
      int64_t t6 = NowNs();
      if (!result.ok()) continue;
      EngineMetrics em = metrics;
      double json = 0;
      int64_t t7 = NowNs();
      for (const gpml::ResultRow& row : result->rows) {
        json += static_cast<double>(gpml::RowToJson(*result, row, g).size());
      }
      int64_t t8 = NowNs();
      Result<gpml::Table> host_gql = session.Execute(gql, st.params);
      int64_t t9 = NowNs();
      cache_lookups += 1;
      cache_hits += static_cast<double>(metrics.plan_cache_hits);
      gpml::GraphTableQuery q;
      q.graph = kGraphName;
      q.match = st.match;
      q.columns = st.items;
      q.params = st.params;
      int64_t t10 = NowNs();
      Result<gpml::Table> host_pgq =
          gpml::GraphTable(data.catalog, q, options);
      int64_t t11 = NowNs();
      cache_lookups += 1;
      cache_hits += static_cast<double>(metrics.plan_cache_hits);
      if (!host_gql.ok() || !host_pgq.ok()) continue;

      n += 1;
      parse_us += Us(t1 - t0);
      normalize_us += Us(t2 - t1);
      analyze_us += Us(t3 - t2);
      cold_us += Us(t4 - t3);
      warm_us += Us(t5 - t4);
      execute_ms += Ms(t6 - t5);
      seed_ms += em.seed_ms;
      exec_ms += em.exec_ms;
      plan_ms += compile_ms;
      seeds += static_cast<double>(em.seeded_nodes);
      steps += static_cast<double>(em.matcher_steps);
      rows += static_cast<double>(em.rows);
      candidates += static_cast<double>(em.batch_candidates);
      survivors += static_cast<double>(em.batch_survivors);
      batch_queries += em.batch_blocks > 0 ? 1 : 0;
      json_us += Us(t8 - t7);
      json_bytes += json;
      json_rows += static_cast<double>(result->rows.size());
      gql_ms += Ms(t9 - t8);
      pgq_ms += Ms(t11 - t10);
    }
  }
  auto mean = [n](double total) { return n > 0 ? total / n : 0; };
  m["parser.parse_us"] = mean(parse_us);
  m["semantics.normalize_analyze_us"] = mean(normalize_us);
  m["analysis.analyze_us"] = mean(analyze_us);
  m["planner.prepare_cold_us"] = mean(cold_us);
  m["planner.prepare_warm_us"] = mean(warm_us);
  m["planner.plan_ms"] = mean(plan_ms);
  if (m.count("planner.plan_cache_hit_ratio") == 0) {
    m["planner.plan_cache_hit_ratio"] =
        cache_lookups > 0 ? cache_hits / cache_lookups : 0;
  }
  m["eval.execute_ms"] = mean(execute_ms);
  m["eval.seed_ms"] = mean(seed_ms);
  m["eval.exec_ms"] = mean(exec_ms);
  m["eval.seeds_per_query"] = mean(seeds);
  m["eval.steps_per_query"] = mean(steps);
  m["eval.steps_per_row"] = rows > 0 ? steps / rows : 0;
  m["eval.batch_survivor_ratio"] =
      candidates > 0 ? survivors / candidates : 0;
  m["eval.batch_query_share"] = mean(batch_queries);
  m["gql.execute_ms"] = mean(gql_ms);
  m["gql.host_overhead_ms"] = mean(gql_ms - execute_ms);
  m["pgq.graph_table_ms"] = mean(pgq_ms);
  m["pgq.host_overhead_ms"] = mean(pgq_ms - execute_ms);
  m["gql.row_to_json_us_per_row"] = json_rows > 0 ? json_us / json_rows : 0;
  m["gql.json_bytes_per_row"] = json_rows > 0 ? json_bytes / json_rows : 0;

  // Stats build on a fresh computation (GetStats caches on the graph).
  std::vector<double> stats_ms;
  for (int i = 0; i < 3; ++i) {
    int64_t t0 = NowNs();
    gpml::planner::GraphStats stats = gpml::planner::ComputeStats(g);
    stats_ms.push_back(Ms(NowNs() - t0));
    (void)stats;
  }
  std::sort(stats_ms.begin(), stats_ms.end());
  m["planner.stats_build_ms"] = stats_ms[1];

  if (!probe_server) return;
  // The same statements through an in-process server (pinned: 2 workers,
  // 1 connection), over a copy of the dataset the server owns.
  gpml::server::ServerOptions server_options;
  server_options.worker_threads = 2;
  server_options.engine = PinnedOptions();
  gpml::server::Server server(server_options);
  ServerStats stats;
  if (!server.AddGraph(kGraphName, gpml::MakeFraudGraph(graph_options)).ok() ||
      !server.Start().ok()) {
    std::fprintf(stderr, "server probe could not start\n");
  } else {
    Result<gpml::server::Client> client =
        gpml::server::Client::Connect("127.0.0.1", server.port(), "probe");
    if (client.ok() && client->UseGraph(kGraphName).ok()) {
      for (const Statement& st : statements) {
        Result<gpml::server::Client::PreparedInfo> prepared =
            client->Prepare(st.match);
        if (!prepared.ok()) continue;
        std::string line = "{\"op\":\"execute\",\"stmt\":" +
                           std::to_string(prepared->stmt) +
                           ",\"params\":" + ParamsJson(st.params) + "}";
        for (int rep = 0; rep < reps; ++rep) {
          Call(&*client, line, &stats, nullptr, -1, -1);
        }
        client->CloseStatement(prepared->stmt);
      }
      client->Bye();
    }
  }
  server.Stop();
  stats.Report(out);
}

// --- fraud_paths ------------------------------------------------------------

/// Figure 4: unblocked and blocked accounts co-located in one city and
/// connected by a chain of transfers, prepared once and bound to $city.
constexpr char kFig4Head[] =
    "MATCH (x:Account WHERE x.isBlocked='no')-[:isLocatedIn]->"
    "(g:City WHERE g.name=$city)<-[:isLocatedIn]-"
    "(y:Account WHERE y.isBlocked='yes'), ";
const char* const kFig4Tails[] = {
    "ANY (x)-[:Transfer]->+(y)",
    "ANY SHORTEST p = (x)-[:Transfer]->+(y)",
    "ANY (x)-[:Transfer]->{1,3}(y)",
};
enum Fig4Variant { kAny = 0, kAnyShortest = 1, kBounded = 2 };

class FraudPaths : public Workload {
 public:
  explicit FraudPaths(const WorkloadConfig& config) : config_(config) {
    // An odd request count per pass (cities x variants) puts the pooled
    // median inside one request's samples, not on the boundary between two
    // requests of different cost, where it would jump between them.
    graph_options_.num_accounts = config.tiny ? 50 : 210;
    graph_options_.num_cities = config.tiny ? 5 : 21;
    graph_options_.seed = kDatasetSeed;
  }

  bool Setup() override {
    if (!data_.Generate(graph_options_)) return false;
    engine_ = std::make_unique<Engine>(*data_.graph, PinnedOptions());
    for (const char* tail : kFig4Tails) {
      Result<PreparedQuery> p =
          engine_->Prepare(std::string(kFig4Head) + tail);
      if (!p.ok()) {
        std::fprintf(stderr, "fraud_paths prepare: %s\n",
                     p.status().ToString().c_str());
        return false;
      }
      prepared_.push_back(*p);
    }
    // The request list: every (city, variant) once, in seeded order.
    for (int city = 0; city < graph_options_.num_cities; ++city) {
      for (Fig4Variant v : {kAny, kAnyShortest, kBounded}) {
        requests_.push_back({v, city});
      }
    }
    std::mt19937_64 rng(config_.seed);
    std::shuffle(requests_.begin(), requests_.end(), rng);
    order_.resize(requests_.size());
    std::iota(order_.begin(), order_.end(), 0);
    latest_.resize(std::size(kFig4Tails) *
                   static_cast<size_t>(graph_options_.num_cities));
    return true;
  }

  const std::vector<uint32_t>& ClientRequests(size_t) const override {
    return order_;
  }

  Outcome Run(size_t, uint32_t index, Tracer* tracer, int parent,
              int64_t request) override {
    const Request& r = requests_[index];
    Params params{{"city", Value::String(CityName(r.city))}};
    Result<MatchOutput> out = [&] {
      ScopedSpan span(tracer, "eval", parent, request);
      return prepared_[r.variant].Execute(params);
    }();
    if (!out.ok()) return {};
    Outcome outcome{true, static_cast<uint32_t>(out->rows.size())};
    latest_[Key(r)] = std::move(*out);
    return outcome;
  }

  bool Check(std::vector<int64_t>* verified_rows) override;

  void Decompose(LayerMetrics* out) override {
    std::vector<Statement> statements;
    for (int city = 0; city < graph_options_.num_cities; ++city) {
      for (const char* tail : kFig4Tails) {
        statements.push_back({std::string(kFig4Head) + tail,
                              "x.owner AS src, y.owner AS dst",
                              {{"city", Value::String(CityName(city))}}});
      }
    }
    DecomposeStatements(data_, graph_options_, statements, 1, true, out);
  }

  double generate_s() const override { return data_.generate_s; }
  double bytes_per_element() const override {
    return data_.bytes_per_element;
  }
  std::string Describe() const override {
    return "Figure 4 on fraud-" + std::to_string(graph_options_.num_accounts) +
           " / " + std::to_string(graph_options_.num_cities) + " cities (" +
           GraphSummary(*data_.graph) + "), " +
           std::to_string(requests_.size()) +
           " requests per pass, 1 client, num_threads=1";
  }

 private:
  struct Request {
    Fig4Variant variant;
    int city;
  };
  size_t Key(const Request& r) const {
    return static_cast<size_t>(r.city) * std::size(kFig4Tails) +
           static_cast<size_t>(r.variant);
  }

  WorkloadConfig config_;
  gpml::FraudGraphOptions graph_options_;
  Dataset data_;
  std::unique_ptr<Engine> engine_;
  std::vector<PreparedQuery> prepared_;
  std::vector<Request> requests_;
  std::vector<uint32_t> order_;
  std::vector<MatchOutput> latest_;  // Latest output per (city, variant).
};

/// Reference answer of one declaration: the reduced bindings of
/// RunReference over `text` (a single-declaration MATCH with no params).
bool ReferenceBindings(const PropertyGraph& g, const std::string& text,
                       uint64_t cap, std::vector<gpml::PathBinding>* out,
                       std::unique_ptr<gpml::VarTable>* vars) {
  Result<gpml::GraphPattern> parsed = gpml::ParseGraphPattern(text);
  if (!parsed.ok()) return false;
  Result<gpml::GraphPattern> normalized = gpml::Normalize(*parsed);
  if (!normalized.ok()) return false;
  Result<gpml::Analysis> analysis = gpml::Analyze(*normalized);
  if (!analysis.ok()) return false;
  *vars = std::make_unique<gpml::VarTable>(*analysis);
  gpml::ReferenceOptions options;
  options.expansion_cap = cap;
  Result<gpml::MatchSet> ref =
      gpml::RunReference(g, normalized->paths[0], **vars, options);
  if (!ref.ok()) {
    std::fprintf(stderr, "reference evaluation failed: %s\n",
                 ref.status().ToString().c_str());
    return false;
  }
  *out = std::move(ref->bindings);
  return true;
}

/// Forward Transfer-edge BFS distances from `source` (the expansion cap of
/// the unbounded reference runs: every shortest witness fits under it).
std::vector<int> TransferDistances(const PropertyGraph& g,
                                   gpml::NodeId source) {
  std::vector<int> dist(g.num_nodes(), -1);
  std::queue<gpml::NodeId> frontier;
  dist[source] = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    gpml::NodeId n = frontier.front();
    frontier.pop();
    for (const gpml::Adjacency& adj : g.adjacencies(n)) {
      if (adj.traversal != gpml::Traversal::kForward) continue;
      if (!g.edge(adj.edge).HasLabel("Transfer")) continue;
      if (dist[adj.neighbor] >= 0) continue;
      dist[adj.neighbor] = dist[n] + 1;
      frontier.push(adj.neighbor);
    }
  }
  return dist;
}

/// True when `p` is a forward walk over Transfer edges.
bool IsTransferWalk(const PropertyGraph& g, const gpml::Path& p) {
  for (size_t i = 0; i < p.edges().size(); ++i) {
    const gpml::EdgeData& e = g.edge(p.edges()[i]);
    if (!e.HasLabel("Transfer") || !e.directed ||
        p.traversals()[i] != gpml::Traversal::kForward ||
        e.u != p.nodes()[i] || e.v != p.nodes()[i + 1]) {
      return false;
    }
  }
  return true;
}

std::string OwnerDisjunction(const PropertyGraph& g, const char* var,
                             const std::set<gpml::NodeId>& nodes) {
  std::string out;
  for (gpml::NodeId n : nodes) {
    if (!out.empty()) out += " OR ";
    out += std::string(var) + ".owner='" +
           g.node(n).GetProperty("owner").string_value() + "'";
  }
  return out;
}

// Rows for every distinct (city, variant) binding against the §6 reference
// evaluator. ANY is nondeterministic in its witness, so rows compare as
// (x, y) endpoint sets, plus the path length for ANY SHORTEST; every
// witness must be a forward Transfer walk from x to y. The reference runs
// per declaration (it has no join): the co-location declaration as is, the
// path declaration with x and y restricted to the co-located accounts and
// the expansion cap set to the longest BFS distance among them.
bool FraudPaths::Check(std::vector<int64_t>* verified_rows) {
  const PropertyGraph& g = *data_.graph;
  using Triple = std::tuple<gpml::NodeId, gpml::NodeId, size_t>;
  std::vector<int64_t> key_rows(latest_.size(), -1);
  bool ok = true;
  for (int city = 0; city < graph_options_.num_cities; ++city) {
    std::unique_ptr<gpml::VarTable> vars;
    std::vector<gpml::PathBinding> colocated;
    std::string head = std::string(kFig4Head);
    head.replace(head.find("$city"), 5, "'" + CityName(city) + "'");
    head.resize(head.size() - 2);  // Drop the ", " before the path decl.
    if (!ReferenceBindings(g, head, 0, &colocated, &vars)) return false;
    std::set<std::pair<gpml::NodeId, gpml::NodeId>> pairs;
    std::set<gpml::NodeId> xs, ys;
    for (const gpml::PathBinding& b : colocated) {
      gpml::NodeId x = b.LastOf(vars->Find("x"))->id;
      gpml::NodeId y = b.LastOf(vars->Find("y"))->id;
      pairs.insert({x, y});
      xs.insert(x);
      ys.insert(y);
    }
    int max_dist = 0;
    for (gpml::NodeId x : xs) {
      std::vector<int> dist = TransferDistances(g, x);
      for (gpml::NodeId y : ys) max_dist = std::max(max_dist, dist[y]);
    }

    for (size_t v = 0; v < std::size(kFig4Tails); ++v) {
      // Expected (x, y, length) set; length only for ANY SHORTEST.
      std::set<Triple> expected;
      if (!pairs.empty() && max_dist > 0) {
        std::string restricted =
            std::string("MATCH ") +
            (v == kBounded ? "ANY " : "ANY SHORTEST ") + "(x:Account WHERE " +
            OwnerDisjunction(g, "x", xs) + ")-[:Transfer]->" +
            (v == kBounded ? "{1,3}" : "+") + "(y:Account WHERE " +
            OwnerDisjunction(g, "y", ys) + ")";
        std::vector<gpml::PathBinding> paths;
        std::unique_ptr<gpml::VarTable> path_vars;
        uint64_t cap = v == kBounded ? 0 : static_cast<uint64_t>(max_dist);
        if (!ReferenceBindings(g, restricted, cap, &paths, &path_vars)) {
          return false;
        }
        for (const gpml::PathBinding& b : paths) {
          gpml::NodeId x = b.path.Start();
          gpml::NodeId y = b.path.End();
          if (pairs.count({x, y}) == 0) continue;
          expected.insert({x, y, v == kAnyShortest ? b.path.Length() : 0});
        }
      }
      const size_t key = Key({static_cast<Fig4Variant>(v), city});
      const MatchOutput& out = latest_[key];
      std::set<Triple> got;
      bool walks_ok = true;
      for (const gpml::ResultRow& row : out.rows) {
        const gpml::Path& p = row.bindings.back()->path;
        walks_ok = walks_ok && IsTransferWalk(g, p) && p.Length() >= 1 &&
                   (v != kBounded || p.Length() <= 3);
        got.insert({p.Start(), p.End(), v == kAnyShortest ? p.Length() : 0});
      }
      bool match =
          walks_ok && got == expected && got.size() == out.rows.size();
      if (!match) {
        std::fprintf(stderr,
                     "fraud_paths: %s / %s differs from the reference "
                     "(%zu rows, %zu expected)\n",
                     CityName(city).c_str(), kFig4Tails[v], out.rows.size(),
                     expected.size());
        ok = false;
        continue;
      }
      key_rows[key] = static_cast<int64_t>(out.rows.size());
    }
  }
  verified_rows->assign(requests_.size(), -1);
  for (size_t i = 0; i < requests_.size(); ++i) {
    (*verified_rows)[i] = key_rows[Key(requests_[i])];
  }
  return ok;
}

// --- lookup_hosts -----------------------------------------------------------

/// Parameterized point lookups by $owner (one seed from the equality
/// index), 1- and 2-hop, alternating the GQL and SQL/PGQ hosts.
const char* const kLookupMatch[] = {
    "MATCH (x:Account WHERE x.owner = $owner)-[t:Transfer]->(y:Account)",
    "MATCH (x:Account WHERE x.owner = $owner)-[:Transfer]->(y:Account)"
    "-[t:Transfer]->(z:Account)",
};
const char* const kLookupItems[] = {
    "x.owner AS owner, y.owner AS dst, t.amount AS amount",
    "x.owner AS owner, z.owner AS dst, t.amount AS amount",
};

class LookupHosts : public Workload {
 public:
  explicit LookupHosts(const WorkloadConfig& config) : config_(config) {
    graph_options_.num_accounts = config.tiny ? 300 : 30000;
    graph_options_.seed = kDatasetSeed;
  }

  bool Setup() override {
    if (!data_.Generate(graph_options_)) return false;
    session_ = std::make_unique<gpml::Session>(data_.catalog, PinnedOptions());
    if (!session_->UseGraph(kGraphName).ok()) return false;
    const size_t n = config_.tiny ? 63 : 4095;  // Odd: see FraudPaths.
    std::mt19937_64 rng(config_.seed);
    std::uniform_int_distribution<int> owner(0,
                                             graph_options_.num_accounts - 1);
    for (size_t i = 0; i < n; ++i) {
      // i % 4: {GQL, PGQ} x {1-hop, 2-hop}, owners uniform.
      requests_.push_back({i % 2 == 1, (i / 2) % 2, OwnerName(owner(rng))});
    }
    order_.resize(n);
    std::iota(order_.begin(), order_.end(), 0);
    latest_.resize(n);
    return true;
  }

  const std::vector<uint32_t>& ClientRequests(size_t) const override {
    return order_;
  }

  Outcome Run(size_t, uint32_t index, Tracer* tracer, int parent,
              int64_t request) override {
    const Request& r = requests_[index];
    Result<gpml::Table> table =
        Execute(r, r.pgq, tracer, parent, request);
    if (!table.ok()) return {};
    Outcome outcome{true, static_cast<uint32_t>(table->num_rows())};
    latest_[index] = std::move(*table);
    return outcome;
  }

  // The GQL and SQL/PGQ tables of every request must agree: each kept
  // output is compared with the other host's table for the same inputs.
  bool Check(std::vector<int64_t>* verified_rows) override {
    verified_rows->assign(requests_.size(), -1);
    bool ok = true;
    for (size_t i = 0; i < requests_.size(); ++i) {
      const Request& r = requests_[i];
      Result<gpml::Table> other = Execute(r, !r.pgq, nullptr, -1, -1);
      if (!other.ok() || !SameTable(latest_[i], *other)) {
        std::fprintf(stderr,
                     "lookup_hosts: GQL and SQL/PGQ disagree for owner %s "
                     "(%zu-hop)\n",
                     r.owner.c_str(), r.hops + 1);
        ok = false;
        continue;
      }
      (*verified_rows)[i] = static_cast<int64_t>(latest_[i].num_rows());
    }
    return ok;
  }

  void Decompose(LayerMetrics* out) override {
    std::vector<Statement> statements;
    for (size_t i = 0; i < std::min<size_t>(requests_.size(), 64); ++i) {
      const Request& r = requests_[i];
      statements.push_back({kLookupMatch[r.hops], kLookupItems[r.hops],
                            {{"owner", Value::String(r.owner)}}});
    }
    DecomposeStatements(data_, graph_options_, statements,
                        config_.tiny ? 1 : 20, true, out);
  }

  double generate_s() const override { return data_.generate_s; }
  double bytes_per_element() const override {
    return data_.bytes_per_element;
  }
  std::string Describe() const override {
    return "owner lookups on fraud-" +
           std::to_string(graph_options_.num_accounts) + " (" +
           GraphSummary(*data_.graph) + "), " +
           std::to_string(requests_.size()) +
           " requests per pass alternating GQL/SQL-PGQ and 1/2 hops, "
           "1 client, num_threads=1";
  }

 private:
  struct Request {
    bool pgq;
    size_t hops;  // 0 = 1-hop, 1 = 2-hop.
    std::string owner;
  };

  Result<gpml::Table> Execute(const Request& r, bool pgq, Tracer* tracer,
                              int parent, int64_t request) const {
    Params params{{"owner", Value::String(r.owner)}};
    if (pgq) {
      ScopedSpan span(tracer, "pgq", parent, request);
      gpml::GraphTableQuery q;
      q.graph = kGraphName;
      q.match = kLookupMatch[r.hops];
      q.columns = kLookupItems[r.hops];
      q.params = std::move(params);
      return gpml::GraphTable(data_.catalog, q, PinnedOptions());
    }
    ScopedSpan span(tracer, "gql", parent, request);
    return session_->Execute(std::string(kLookupMatch[r.hops]) + " RETURN " +
                                 kLookupItems[r.hops],
                             params);
  }

  static bool SameTable(const gpml::Table& a, const gpml::Table& b) {
    if (a.schema().num_columns() != b.schema().num_columns()) return false;
    for (size_t c = 0; c < a.schema().num_columns(); ++c) {
      if (a.schema().column(c).name != b.schema().column(c).name) return false;
    }
    return a.rows() == b.rows();
  }

  WorkloadConfig config_;
  gpml::FraudGraphOptions graph_options_;
  Dataset data_;
  std::unique_ptr<gpml::Session> session_;
  std::vector<Request> requests_;
  std::vector<uint32_t> order_;
  std::vector<gpml::Table> latest_;  // Latest table per request index.
};

// --- server_mixed -----------------------------------------------------------

constexpr char kOwnerQuery[] =
    "MATCH (x:Account WHERE x.owner = $owner)-[t:Transfer]->(y:Account)";
constexpr char kCityQuery[] =
    "MATCH (c:City WHERE c.name = $city)<-[:isLocatedIn]-(x:Account)"
    "-[t:Transfer]->(y:Account)";
constexpr int kPageRows = 100;
// Ad-hoc literal texts cycle through this many owners: more distinct
// fingerprints than the plan cache holds (kPlanCacheMaxEntries = 128).
constexpr int kAdhocOwners = 300;

std::string AdhocQuery(const std::string& owner) {
  return "MATCH (x:Account WHERE x.owner = '" + owner +
         "')-[t:Transfer]->(y:Account WHERE y.isBlocked = 'no')";
}

class ServerMixed : public Workload {
 public:
  static constexpr size_t kClients = 2;

  explicit ServerMixed(const WorkloadConfig& config) : config_(config) {
    graph_options_.num_accounts = config.tiny ? 300 : 3000;
    graph_options_.num_cities = 30;
    graph_options_.seed = kDatasetSeed;
  }
  ~ServerMixed() override { Teardown(); }

  bool Setup() override {
    gpml::server::ServerOptions options;
    options.worker_threads = 2;  // Pinned.
    options.engine = PinnedOptions();
    server_ = std::make_unique<gpml::server::Server>(options);
    PropertyGraph g =
        GenerateGraph(graph_options_, &generate_s_, &bytes_per_element_);
    summary_ = GraphSummary(g);
    if (!server_->AddGraph(kGraphName, std::move(g)).ok()) return false;
    if (!server_->Start().ok()) return false;

    // Fixed seeded mix per pass: 6 prepared owner executes, 2 cursor
    // scans, 2 ad-hoc literal texts out of every 10 requests.
    const size_t n = config_.tiny ? 40 : 1000;
    std::mt19937_64 rng(config_.seed);
    std::uniform_int_distribution<int> owner(0,
                                             graph_options_.num_accounts - 1);
    std::uniform_int_distribution<int> city(0, graph_options_.num_cities - 1);
    int adhoc_next = static_cast<int>(rng() % kAdhocOwners);
    for (size_t i = 0; i < n; ++i) {
      size_t slot = i % 10;
      Request r;
      if (slot < 6) {
        r.kind = kOwner;
        r.arg = OwnerName(owner(rng));
      } else if (slot < 8) {
        r.kind = kCursor;
        r.arg = CityName(city(rng));
      } else {
        r.kind = kAdhoc;
        // Account ids spread over the graph, cycling in a fixed order.
        r.arg = OwnerName(adhoc_next * (graph_options_.num_accounts /
                                        kAdhocOwners));
        adhoc_next = (adhoc_next + 1) % kAdhocOwners;
      }
      requests_.push_back(r);
    }
    std::shuffle(requests_.begin(), requests_.end(), rng);
    for (size_t i = 0; i < n; ++i) {
      client_requests_[i % kClients].push_back(static_cast<uint32_t>(i));
    }

    for (size_t c = 0; c < kClients; ++c) {
      ClientState& cs = clients_[c];
      Result<gpml::server::Client> client = gpml::server::Client::Connect(
          "127.0.0.1", server_->port(), "bench");
      if (!client.ok() || !client->UseGraph(kGraphName).ok()) return false;
      cs.client = std::move(*client);
      Result<gpml::server::Client::PreparedInfo> owner_stmt =
          cs.client.Prepare(kOwnerQuery);
      Result<gpml::server::Client::PreparedInfo> city_stmt =
          cs.client.Prepare(kCityQuery);
      if (!owner_stmt.ok() || !city_stmt.ok()) return false;
      cs.owner_stmt = owner_stmt->stmt;
      cs.city_stmt = city_stmt->stmt;
    }
    return true;
  }

  size_t clients() const override { return kClients; }
  const std::vector<uint32_t>& ClientRequests(size_t c) const override {
    return client_requests_[c];
  }

  Outcome Run(size_t c, uint32_t index, Tracer* tracer, int parent,
              int64_t request) override {
    ClientState& cs = clients_[c];
    const Request& r = requests_[index];
    ServerStats* stats = tracer != nullptr ? &cs.stats : nullptr;
    std::vector<std::string> rows;
    bool ok = false;
    switch (r.kind) {
      case kOwner: {
        WireReply reply =
            Call(&cs.client,
                 "{\"op\":\"execute\",\"stmt\":" +
                     std::to_string(cs.owner_stmt) + ",\"params\":" +
                     ParamsJson({{"owner", Value::String(r.arg)}}) + "}",
                 stats, tracer, parent, request);
        ok = reply.ok;
        if (ok) AppendRows(reply.response, &rows);
        break;
      }
      case kCursor: {
        WireReply open =
            Call(&cs.client,
                 "{\"op\":\"open\",\"stmt\":" + std::to_string(cs.city_stmt) +
                     ",\"params\":" +
                     ParamsJson({{"city", Value::String(r.arg)}}) + "}",
                 stats, tracer, parent, request);
        int64_t cursor = open.ok ? IntField(open.response, "cursor") : -1;
        if (cursor < 0) break;
        std::string fetch = "{\"op\":\"fetch\",\"cursor\":" +
                            std::to_string(cursor) +
                            ",\"max_rows\":" + std::to_string(kPageRows) + "}";
        for (;;) {
          WireReply page = Call(&cs.client, fetch, stats, tracer, parent,
                                request);
          if (!page.ok) break;
          AppendRows(page.response, &rows);
          const gpml::server::JsonValue* done =
              page.response.parsed.Find("done");
          if (done != nullptr && done->is_bool() && done->bool_v) {
            ok = true;
            break;
          }
        }
        WireReply close = Call(&cs.client,
                               "{\"op\":\"close_cursor\",\"cursor\":" +
                                   std::to_string(cursor) + "}",
                               stats, tracer, parent, request);
        ok = ok && close.ok;
        break;
      }
      case kAdhoc: {
        std::string query = AdhocQuery(r.arg);
        WireReply prepared =
            Call(&cs.client,
                 "{\"op\":\"prepare\",\"query\":\"" + gpml::JsonEscape(query) +
                     "\"}",
                 stats, tracer, parent, request);
        int64_t stmt = prepared.ok ? IntField(prepared.response, "stmt") : -1;
        if (stmt < 0) break;
        WireReply exec = Call(
            &cs.client,
            "{\"op\":\"execute\",\"stmt\":" + std::to_string(stmt) + "}",
            stats, tracer, parent, request);
        if (exec.ok) AppendRows(exec.response, &rows);
        WireReply close = Call(
            &cs.client,
            "{\"op\":\"close_stmt\",\"stmt\":" + std::to_string(stmt) + "}",
            stats, tracer, parent, request);
        ok = exec.ok && close.ok;
        break;
      }
    }
    if (!ok) return {};
    Outcome outcome{true, static_cast<uint32_t>(rows.size())};
    cs.latest[{r.kind, r.arg}] = std::move(rows);
    return outcome;
  }

  // Every kept server response must be byte-identical to in-process
  // RowToJson over an identical graph (same generator options).
  bool Check(std::vector<int64_t>* verified_rows) override {
    PropertyGraph oracle_graph = gpml::MakeFraudGraph(graph_options_);
    Engine engine(oracle_graph, PinnedOptions());
    std::map<std::pair<Kind, std::string>, int64_t> verified;
    bool ok = true;
    for (const ClientState& cs : clients_) {
      for (const auto& [key, rows] : cs.latest) {
        std::vector<std::string> want;
        bool ran = false;
        if (key.first == kAdhoc) {
          ran = ExpectedRows(engine, AdhocQuery(key.second), {}, &want);
        } else {
          ran = ExpectedRows(
              engine, key.first == kOwner ? kOwnerQuery : kCityQuery,
              {{key.first == kOwner ? "owner" : "city",
                Value::String(key.second)}},
              &want);
        }
        if (!ran || want != rows) {
          std::fprintf(stderr,
                       "server_mixed: rows for %s differ from in-process "
                       "RowToJson (%zu vs %zu)\n",
                       key.second.c_str(), rows.size(), want.size());
          ok = false;
          verified[key] = -1;
        } else if (verified.count(key) == 0) {
          verified[key] = static_cast<int64_t>(rows.size());
        }
      }
    }
    verified_rows->assign(requests_.size(), -1);
    for (size_t i = 0; i < requests_.size(); ++i) {
      auto it = verified.find({requests_[i].kind, requests_[i].arg});
      if (it != verified.end()) (*verified_rows)[i] = it->second;
    }
    return ok;
  }

  void Decompose(LayerMetrics* out) override {
    ServerStats total;
    for (const ClientState& cs : clients_) total.Merge(cs.stats);
    total.Report(out);
    (*out)["planner.plan_cache_hit_ratio"] =
        total.prepares > 0 ? total.prepares_from_cache / total.prepares : 0;
    // The in-process layers, decomposed on the same statements over an
    // identical graph.
    Dataset data;
    if (!data.Generate(graph_options_)) return;
    std::vector<Statement> statements;
    for (size_t i = 0; i < std::min<size_t>(requests_.size(), 60); ++i) {
      const Request& r = requests_[i];
      switch (r.kind) {
        case kOwner:
          statements.push_back({kOwnerQuery, "x.owner AS src, y.owner AS dst",
                                {{"owner", Value::String(r.arg)}}});
          break;
        case kCursor:
          statements.push_back({kCityQuery, "x.owner AS src, y.owner AS dst",
                                {{"city", Value::String(r.arg)}}});
          break;
        case kAdhoc:
          statements.push_back(
              {AdhocQuery(r.arg), "x.owner AS src, y.owner AS dst", {}});
          break;
      }
    }
    DecomposeStatements(data, graph_options_, statements,
                        config_.tiny ? 1 : 5, false, out);
  }

  double generate_s() const override { return generate_s_; }
  double bytes_per_element() const override { return bytes_per_element_; }
  std::string Describe() const override {
    return "in-process server on fraud-" +
           std::to_string(graph_options_.num_accounts) + " (" + summary_ +
           "), " + std::to_string(requests_.size()) +
           " requests per pass (60% prepared $owner execute, 20% cursor "
           "open+fetch pages of " +
           std::to_string(kPageRows) +
           ", 20% ad-hoc prepare+execute+close_stmt over " +
           std::to_string(kAdhocOwners) +
           " literal texts), worker_threads=2, 2 client connections, "
           "num_threads=1";
  }

  void Teardown() override {
    for (ClientState& cs : clients_) {
      if (cs.client.connected()) cs.client.Bye();
      cs.client.Close();
    }
    if (server_ != nullptr) server_->Stop();
  }

 private:
  enum Kind { kOwner, kCursor, kAdhoc };
  struct Request {
    Kind kind = kOwner;
    std::string arg;  // $owner, $city, or the ad-hoc literal owner.
  };
  struct ClientState {
    gpml::server::Client client;
    int64_t owner_stmt = -1;
    int64_t city_stmt = -1;
    ServerStats stats;  // Traced passes only.
    // Latest rows per distinct (kind, argument).
    std::map<std::pair<Kind, std::string>, std::vector<std::string>> latest;
  };

  WorkloadConfig config_;
  gpml::FraudGraphOptions graph_options_;
  std::unique_ptr<gpml::server::Server> server_;
  double generate_s_ = 0;
  double bytes_per_element_ = 0;
  std::string summary_;
  std::vector<Request> requests_;
  std::vector<uint32_t> client_requests_[kClients];
  ClientState clients_[kClients];
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const WorkloadConfig& config) {
  if (name == "fraud_paths") return std::make_unique<FraudPaths>(config);
  if (name == "lookup_hosts") return std::make_unique<LookupHosts>(config);
  if (name == "server_mixed") return std::make_unique<ServerMixed>(config);
  return nullptr;
}

}  // namespace e2ebench

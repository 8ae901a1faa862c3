#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>
#include <utility>

namespace e2ebench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json ("end_to_end" and "per_layer"); the
// self-test in run.py compares the printed names and units against it.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"throughput_qps", "1/s"},
    {"cpu_ms_per_query", "ms"},
    {"success_rate", "ratio"},
    {"peak_rss_mb", "MB"},
};

const MetricDef kPerLayer[] = {
    {"graph.generate_s", "s"},
    {"graph.bytes_per_element", "B"},
    {"planner.stats_build_ms", "ms"},
    {"planner.prepare_cold_us", "us"},
    {"planner.prepare_warm_us", "us"},
    {"planner.plan_cache_hit_ratio", "ratio"},
    {"planner.plan_ms", "ms"},
    {"parser.parse_us", "us"},
    {"semantics.normalize_analyze_us", "us"},
    {"analysis.analyze_us", "us"},
    {"eval.execute_ms", "ms"},
    {"eval.seed_ms", "ms"},
    {"eval.exec_ms", "ms"},
    {"eval.seeds_per_query", "count"},
    {"eval.steps_per_query", "count"},
    {"eval.steps_per_row", "count"},
    {"eval.batch_survivor_ratio", "ratio"},
    {"eval.batch_query_share", "ratio"},
    {"gql.execute_ms", "ms"},
    {"gql.host_overhead_ms", "ms"},
    {"gql.row_to_json_us_per_row", "us"},
    {"gql.json_bytes_per_row", "B"},
    {"pgq.graph_table_ms", "ms"},
    {"pgq.host_overhead_ms", "ms"},
    {"server.roundtrip_ms", "ms"},
    {"server.admission_ms", "ms"},
    {"server.queue_ms", "ms"},
    {"server.exec_ms", "ms"},
    {"server.wire_ms", "ms"},
    {"server.bytes_per_response", "B"},
    {"server.refusals_saturated", "count"},
    {"server.refusals_quota", "count"},
    {"server.refusals_other", "count"},
    {"self.eval_ms", "ms"},
    {"self.gql_ms", "ms"},
    {"self.pgq_ms", "ms"},
    {"self.server_ms", "ms"},
    {"trace.unattributed_ms", "ms"},
    {"trace.overhead_ms", "ms"},
    {"trace.spans_per_query", "count"},
};

// Span names whose self time is reported as self.<layer>_ms.
const char* const kTracedLayers[] = {"eval", "gql", "pgq", "server"};

// Tracing stops recording new traced passes beyond this many spans, so the
// in-memory trace and the file written at exit stay a few MB.
constexpr size_t kMaxSpans = 100000;

// Timing metrics are medians over blocks of whole passes, each holding at
// least this many requests — so a block's p99 has >= 10 samples beyond it.
// The host has multi-second slow episodes (it is shared); a median over
// blocks keeps one episode from moving a run's figures, while a change that
// slows every pass moves every block.
constexpr size_t kMinBlockRequests = 1000;

int64_t g_process_start_ns = NowNs();

struct Sample {
  int64_t ns;
  int64_t end_ns;
  uint32_t index;
  uint32_t rows;
  bool ok;
  bool traced;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of a sorted vector.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p * sorted.size()));
  rank = std::min(std::max<size_t>(rank, 1), sorted.size());
  return sorted[rank - 1];
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/// Runs every client's request list once, untraced (the warm-up pass).
bool WarmUp(Workload* w) {
  bool ok = true;
  std::vector<std::thread> threads;
  std::vector<char> client_ok(w->clients(), 1);
  for (size_t c = 0; c < w->clients(); ++c) {
    threads.emplace_back([w, c, &client_ok] {
      for (uint32_t index : w->ClientRequests(c)) {
        if (!w->Run(c, index, nullptr, -1, -1).ok) client_ok[c] = 0;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (char c : client_ok) ok = ok && c != 0;
  return ok;
}

/// The end of one pass of client 0: blocks are cut at these marks.
struct PassMark {
  int64_t end_ns;
  double cpu_s;
};

struct TimedResult {
  std::vector<Sample> samples;
  std::vector<PassMark> marks;  // marks[0] is the start of the run.
  double wall_s = 0;
  std::vector<Tracer> tracers;
};

/// The closed loop: every client runs whole passes over its request list
/// until `seconds` have elapsed, so each run executes the same mix. In a
/// traced run, passes alternate untraced/traced (the untraced ones give the
/// tracing-overhead baseline under the same host phases).
TimedResult RunTimed(Workload* w, double seconds, bool trace) {
  TimedResult result;
  size_t clients = w->clients();
  std::vector<std::vector<Sample>> per_client(clients);
  for (size_t c = 0; c < clients; ++c) {
    result.tracers.emplace_back(trace ? kMaxSpans / clients + 64 : 0);
  }
  const int64_t budget_ns = static_cast<int64_t>(seconds * 1e9);
  result.marks.push_back({NowNs(), CpuSeconds()});
  int64_t start = result.marks[0].end_ns;
  std::vector<int64_t> end(clients, start);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const std::vector<uint32_t>& list = w->ClientRequests(c);
      std::vector<Sample>& samples = per_client[c];
      Tracer& tracer = result.tracers[c];
      int64_t request = static_cast<int64_t>(c) << 40;
      for (size_t pass = 0;; ++pass) {
        bool traced = trace && pass % 2 == 1 &&
                      tracer.spans().size() + 8 * list.size() <
                          kMaxSpans / clients;
        for (uint32_t index : list) {
          ++request;
          int64_t t0 = NowNs();
          Outcome out;
          if (traced) {
            int root = tracer.Begin("request", -1, request);
            out = w->Run(c, index, &tracer, root, request);
            tracer.End(root);
          } else {
            out = w->Run(c, index, nullptr, -1, request);
          }
          int64_t t1 = NowNs();
          samples.push_back({t1 - t0, t1, index, out.rows, out.ok, traced});
        }
        end[c] = NowNs();
        if (c == 0) result.marks.push_back({end[c], CpuSeconds()});
        if (end[c] - start >= budget_ns) break;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  result.wall_s =
      static_cast<double>(*std::max_element(end.begin(), end.end()) - start) /
      1e9;
  for (std::vector<Sample>& s : per_client) {
    result.samples.insert(result.samples.end(), s.begin(), s.end());
  }
  return result;
}

/// Timing figures of one block of passes.
struct Block {
  double p50_ms;
  double p99_ms;
  double qps;
  double cpu_ms_per_query;
};

/// Cuts the run at client 0's pass marks into blocks of at least
/// kMinBlockRequests untraced requests (a short run is one block) and
/// measures each. `latency_ms` holds each sample's latency, +inf for a
/// failed request.
std::vector<Block> MeasureBlocks(const TimedResult& timed,
                                 const std::vector<double>& latency_ms) {
  // Untraced samples in completion order (clients interleave in time).
  std::vector<std::pair<int64_t, double>> done;
  for (size_t i = 0; i < timed.samples.size(); ++i) {
    if (!timed.samples[i].traced) {
      done.push_back({timed.samples[i].end_ns, latency_ms[i]});
    }
  }
  std::sort(done.begin(), done.end());
  std::vector<Block> blocks;
  std::vector<double> window;
  size_t next = 0;
  size_t begin_mark = 0;
  for (size_t m = 1; m < timed.marks.size(); ++m) {
    for (; next < done.size() && done[next].first <= timed.marks[m].end_ns;
         ++next) {
      window.push_back(done[next].second);
    }
    bool last = m + 1 == timed.marks.size();
    if (window.size() < kMinBlockRequests && !(last && blocks.empty())) {
      continue;  // Extend the block to the next mark.
    }
    if (window.empty()) break;
    double succeeded = static_cast<double>(
        std::count_if(window.begin(), window.end(),
                      [](double v) { return std::isfinite(v); }));
    std::sort(window.begin(), window.end());
    const PassMark& from = timed.marks[begin_mark];
    const PassMark& to = timed.marks[m];
    double wall_s = static_cast<double>(to.end_ns - from.end_ns) / 1e9;
    blocks.push_back(
        {Percentile(window, 0.50), Percentile(window, 0.99),
         succeeded / wall_s,
         (to.cpu_s - from.cpu_s) * 1e3 / static_cast<double>(window.size())});
    window.clear();
    begin_mark = m;
  }
  return blocks;
}

struct Report {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<MetricDef, double>> metrics;
};

Report RunOnce(const Options& options, bool tiny) {
  Report report;
  WorkloadConfig config;
  config.seed = options.seed;
  config.tiny = tiny;

  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  int setups = std::max(1, options.setups);
  for (int rep = 0; rep < setups; ++rep) {
    if (w != nullptr) w->Teardown();
    w.reset();
    // The first set-up is timed from process start (static init, argument
    // parsing); later ones from their own start.
    int64_t t0 = rep == 0 ? g_process_start_ns : NowNs();
    w = MakeWorkload(options.workload, config);
    if (w == nullptr) {
      std::fprintf(stderr, "unknown workload '%s'\n",
                   options.workload.c_str());
      return report;
    }
    if (!w->Setup() || !WarmUp(w.get())) {
      std::fprintf(stderr, "%s: set-up or warm-up pass failed\n",
                   options.workload.c_str());
      w->Teardown();
      return report;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  std::printf("workload %s: %s\n", options.workload.c_str(),
              w->Describe().c_str());
  std::printf("host: nproc=%ld; pinned: clients=%zu (see description)\n",
              sysconf(_SC_NPROCESSORS_ONLN), w->clients());

  // The high-water mark after set-up covers the dataset, the prepared
  // statements and one execution of every request (the warm-up pass), but
  // not the timed loop's sample buffers, which grow with throughput.
  const double peak_rss_mb = PeakRssMb();
  TimedResult timed = RunTimed(w.get(), options.seconds, options.trace);

  // Output checks: outside the timed region and outside setup_s.
  std::vector<int64_t> verified;
  bool checks_ok = w->Check(&verified);
  std::vector<double> latency_ms;  // Per sample; +inf when it failed.
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  uint64_t succeeded = 0;
  for (const Sample& s : timed.samples) {
    bool good = s.ok && s.index < verified.size() && verified[s.index] >= 0 &&
                static_cast<int64_t>(s.rows) == verified[s.index];
    if (good) ++succeeded;
    // A failed request misses every latency limit: count it as infinite.
    latency_ms.push_back(good ? static_cast<double>(s.ns) / 1e6 : INFINITY);
    (s.traced ? traced_ms : untraced_ms).push_back(latency_ms.back());
  }
  report.attempted = timed.samples.size();
  report.failed = report.attempted - succeeded;
  report.correct = checks_ok && report.failed == 0 && report.attempted > 0;
  if (report.failed != 0) {
    std::fprintf(stderr, "%s: %llu of %llu requests failed or mismatched\n",
                 options.workload.c_str(),
                 static_cast<unsigned long long>(report.failed),
                 static_cast<unsigned long long>(report.attempted));
  }

  std::vector<Block> blocks = MeasureBlocks(timed, latency_ms);
  std::printf(
      "timed: %zu untraced + %zu traced requests in %.2f s wall, %zu "
      "blocks of >= %zu requests (p99 from >= 10 samples beyond it per "
      "block)\n",
      untraced_ms.size(), traced_ms.size(), timed.wall_s, blocks.size(),
      kMinBlockRequests);
  auto block_median = [&blocks](double Block::*field) {
    std::vector<double> v;
    for (const Block& b : blocks) v.push_back(b.*field);
    return Median(v);
  };

  std::map<std::string, double> values;
  if (!options.trace) {
    const double attempted = static_cast<double>(report.attempted);
    values["setup_s"] = Median(setup_s);
    values["latency_p50_ms"] = block_median(&Block::p50_ms);
    values["latency_p99_ms"] = block_median(&Block::p99_ms);
    values["throughput_qps"] = block_median(&Block::qps);
    values["cpu_ms_per_query"] = block_median(&Block::cpu_ms_per_query);
    values["success_rate"] =
        attempted > 0 ? static_cast<double>(succeeded) / attempted : 0;
    values["peak_rss_mb"] = peak_rss_mb;
    for (const MetricDef& def : kEndToEnd) {
      report.metrics.push_back({def, values[def.name]});
    }
  } else {
    LayerMetrics layers;
    w->Decompose(&layers);
    layers["graph.generate_s"] = w->generate_s();
    layers["graph.bytes_per_element"] = w->bytes_per_element();
    std::map<std::string, double> self;
    size_t spans = 0;
    for (const Tracer& t : timed.tracers) {
      for (const auto& [name, ms] : t.SelfMs()) self[name] += ms;
      spans += t.spans().size();
    }
    const double traced = static_cast<double>(traced_ms.size());
    auto per_query = [traced](double total) {
      return traced > 0 ? total / traced : 0;
    };
    for (const char* layer : kTracedLayers) {
      layers[std::string("self.") + layer + "_ms"] = per_query(self[layer]);
    }
    layers["trace.unattributed_ms"] = per_query(self["request"]);
    layers["trace.spans_per_query"] = per_query(static_cast<double>(spans));
    std::sort(untraced_ms.begin(), untraced_ms.end());
    std::sort(traced_ms.begin(), traced_ms.end());
    layers["trace.overhead_ms"] =
        Percentile(traced_ms, 0.50) - Percentile(untraced_ms, 0.50);
    for (const MetricDef& def : kPerLayer) {
      auto it = layers.find(def.name);
      if (it == layers.end()) {
        std::fprintf(stderr, "%s: per-layer metric %s not measured\n",
                     options.workload.c_str(), def.name);
        report.correct = false;
        continue;
      }
      report.metrics.push_back({def, it->second});
    }
    if (!options.trace_out.empty()) {
      // Every client's spans, one file; request ids carry the client.
      std::FILE* out = std::fopen(options.trace_out.c_str(), "w");
      bool written = out != nullptr;
      for (const Tracer& t : timed.tracers) {
        written = written && t.Write(out);
      }
      if (out != nullptr) written = std::fclose(out) == 0 && written;
      if (!written) {
        std::fprintf(stderr, "could not write %s\n",
                     options.trace_out.c_str());
      }
    }
  }
  w->Teardown();
  return report;
}

void PrintReport(const Report& report) {
  std::string line = "{\"correct\": ";
  line += report.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(report.attempted);
  line += ", \"failed\": " + std::to_string(report.failed);
  line += ", \"metrics\": {";
  bool first = true;
  char buf[96];
  for (const auto& [def, value] : report.metrics) {
    double v = std::isfinite(value) ? value : -1;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (!first) line += ", ";
    first = false;
    line += "\"" + std::string(def.name) + "\": {\"value\": " + buf +
            ", \"unit\": \"" + def.unit + "\"}";
  }
  line += "}}";
  std::fflush(stderr);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace

std::map<std::string, double> Tracer::SelfMs() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[s.name] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
  }
  return self;
}

bool Tracer::Write(std::FILE* out) const {
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"parent\":%d,\"request\":%lld,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.name, s.parent, static_cast<long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::ferror(out) == 0;
}

size_t CurrentRssBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0, resident = 0;
  int n = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<size_t>(resident) *
         static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

int RunBenchmark(const Options& options) {
  Report report = RunOnce(options, options.tiny);
  PrintReport(report);
  return report.correct ? 0 : 1;
}

}  // namespace e2ebench

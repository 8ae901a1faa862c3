// Workload-independent half of the end-to-end benchmark: command-line
// options, the closed-loop timed loop, the in-memory span tracer, and the
// metric report printed as the last line of standard output.

#ifndef GPML_E2EBENCH_HARNESS_H_
#define GPML_E2EBENCH_HARNESS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace e2ebench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;       // Self-test scale: tiny graphs and lists.
  std::string trace_out;   // Span dump path for traced runs ("" = none).
  int setups = 3;          // Repeated set-ups; setup_s is their median.
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spans recorded by the benchmark around its calls into each layer: name,
/// start, end, parent, request id. Preallocated and kept in memory; written
/// out once when the run ends.
class Tracer {
 public:
  struct Span {
    const char* name;  // Static layer name ("request", "eval", "gql", ...).
    int parent;
    int64_t request;
    int64_t start_ns;
    int64_t end_ns;
  };

  explicit Tracer(size_t reserve) { spans_.reserve(reserve); }

  int Begin(const char* name, int parent, int64_t request) {
    spans_.push_back({name, parent, request, NowNs(), 0});
    return static_cast<int>(spans_.size() - 1);
  }
  void End(int span) { spans_[static_cast<size_t>(span)].end_ns = NowNs(); }
  /// Closes `span` at an already-taken timestamp (the caller's own clock
  /// read), so back-to-back spans share one read.
  void EndAt(int span, int64_t ns) {
    spans_[static_cast<size_t>(span)].end_ns = ns;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name in milliseconds: each span's duration minus
  /// the part covered by its direct children.
  std::map<std::string, double> SelfMs() const;

  /// Writes one JSON object per line per span; false on an I/O error.
  bool Write(std::FILE* out) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span; a null tracer makes it free.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int parent, int64_t request)
      : tracer_(tracer),
        index_(tracer ? tracer->Begin(name, parent, request) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// The outcome of one request as the timed loop sees it. `rows` is what
/// the post-run checks compare against the verified output for `index`.
struct Outcome {
  bool ok = false;
  uint32_t rows = 0;
};

/// Per-layer metric values by name (the per_layer names of BENCHMARK.json).
using LayerMetrics = std::map<std::string, double>;

/// One workload: a graph, a fixed seeded request list, and the checks that
/// verify what the requests returned.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds inputs, registers them, prepares statements and connects
  /// clients — everything before the warm-up pass.
  virtual bool Setup() = 0;
  /// Client connections/threads driving the request list (pinned).
  virtual size_t clients() const { return 1; }
  /// Request indices client `c` owns, in its execution order.
  virtual const std::vector<uint32_t>& ClientRequests(size_t c) const = 0;
  /// Executes request `index` on client `client`. Keeps the output needed
  /// by Check (the latest output per request index). When `tracer` is
  /// non-null, records spans under `parent` for request id `request`.
  virtual Outcome Run(size_t client, uint32_t index, Tracer* tracer,
                      int parent, int64_t request) = 0;
  /// Verifies the kept outputs (outside the timed region). Fills
  /// `verified_rows[index]` with the verified row count of each request,
  /// or -1 when its output failed verification. Returns false on any
  /// mismatch, with a reason printed to stderr.
  virtual bool Check(std::vector<int64_t>* verified_rows) = 0;
  /// Per-layer decomposition for traced runs: calls each layer's public
  /// functions separately on the workload's inputs.
  virtual void Decompose(LayerMetrics* out) = 0;
  /// Graph generation wall and bytes per element measured in Setup.
  virtual double generate_s() const = 0;
  virtual double bytes_per_element() const = 0;
  /// Description printed with the results (sizes, pinned counts).
  virtual std::string Describe() const = 0;
  /// Stops servers/threads the workload started (idempotent).
  virtual void Teardown() {}
};

struct WorkloadConfig {
  uint64_t seed = 1;
  bool tiny = false;  // Self-test scale.
};

/// The named workload, or null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const WorkloadConfig& config);

/// Current resident set size in bytes (/proc/self/statm).
size_t CurrentRssBytes();

/// Runs one workload end to end and prints the report; returns the exit
/// code (0 = every check passed).
int RunBenchmark(const Options& options);

}  // namespace e2ebench

#endif  // GPML_E2EBENCH_HARNESS_H_

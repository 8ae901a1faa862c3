#ifndef GPML_OBS_TRACE_H_
#define GPML_OBS_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace gpml {
namespace obs {

/// One timed region of a query execution. Spans nest through explicit
/// parent indices (no hidden stack), so the engine can interleave open
/// spans and append reconstructed ones (per-shard timings measured inside
/// the matcher, plan/compile costs replayed from the plan-cache entry).
struct Span {
  std::string name;
  int parent = -1;          // Index into Trace::spans(); -1 = root.
  uint64_t start_us = 0;    // Relative to the trace epoch (first span).
  int64_t duration_us = -1; // -1 while the span is still open.
  std::vector<std::pair<std::string, std::string>> attrs;
};

/// The span tree of one engine execution, attached via
/// EngineOptions::trace: parse, normalize/analyze, plan, compile, then per
/// declaration seed + match (with one span per worker shard), join, and the
/// final filter (docs/observability.md lists the taxonomy). The engine
/// clears and refills it when an execution completes, laying the spans
/// out from the execution's record.
///
/// Not thread-safe: one Trace belongs to one executing call. Worker shards
/// never touch it — the matcher reports per-shard wall times through
/// MatchStats and the engine appends the shard spans after the join.
class Trace {
 public:
  static constexpr int kNoParent = -1;

  /// Opens a span under `parent` (kNoParent for a root) and returns its
  /// index. The first span after Clear() fixes the trace epoch.
  int Begin(std::string name, int parent = kNoParent);

  /// Closes the span, capturing its monotonic duration.
  void End(int span);

  /// Attaches a key/value attribute to an open or closed span.
  void Attr(int span, std::string key, std::string value);

  /// Appends an already-measured span (shard timings, replayed plan-cache
  /// compile costs). `start_us` is relative to the trace epoch.
  int AddComplete(std::string name, int parent, uint64_t start_us,
                  uint64_t duration_us);

  /// Microseconds since the trace epoch (0 before the first span).
  uint64_t NowUs() const;

  void Clear();
  bool empty() const { return spans_.empty(); }
  const std::vector<Span>& spans() const { return spans_; }

  /// The first span with this name, or nullptr — test/report convenience.
  const Span* Find(const std::string& name) const;

  /// Summed duration (ms) over all closed spans with this name; 0 when
  /// absent. This is how EngineMetrics' stage totals are derived.
  double TotalMs(const std::string& name) const;

  /// One JSON object per span, newline-terminated — the JSON-lines payload
  /// TraceSinks receive and the slow-query log stores:
  ///   {"span":"match","parent":1,"start_us":120,"dur_us":950,
  ///    "attrs":{"decl":"0"}}
  /// Open spans render "dur_us":-1.
  std::string ToJsonLines() const;

 private:
  uint64_t epoch_us_ = 0;  // Absolute monotonic time of the first span.
  std::vector<Span> spans_;
};

/// Where finished traces go (EngineOptions::trace_sink): the engine calls
/// Emit once per completed execution. Implementations must be thread-safe —
/// concurrent executions sharing one options struct share the sink.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void Emit(const Trace& trace) = 0;
};

/// Accumulates emitted traces as JSON lines in memory (tests, examples).
class StringTraceSink : public TraceSink {
 public:
  void Emit(const Trace& trace) override;

  /// All lines emitted so far, leaving the buffer empty.
  std::string TakeOutput();
  size_t traces_emitted() const;

 private:
  mutable std::mutex mu_;
  std::string buffer_;
  size_t count_ = 0;
};

/// Writes emitted traces as JSON lines to a stdio stream (not owned) —
/// point it at stderr or a log file for always-on tracing.
class FileTraceSink : public TraceSink {
 public:
  explicit FileTraceSink(std::FILE* out) : out_(out) {}
  void Emit(const Trace& trace) override;

 private:
  std::mutex mu_;
  std::FILE* out_;
};

}  // namespace obs
}  // namespace gpml

#endif  // GPML_OBS_TRACE_H_

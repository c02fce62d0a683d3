// In-memory span recording for the benchmark's traced run.
//
// A span is one call into a layer, timed at the public seam the benchmark
// calls through: name, start, end, the enclosing span, and the id of the run
// it belongs to.  Spans stay in memory while the benchmark runs; at the end
// they are reduced to per-layer self times (a span's duration minus the time
// its children cover) and written as Chrome Trace Event JSON, which Perfetto
// (ui.perfetto.dev) and chrome://tracing open offline.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gmpbench {

inline uint64_t now_ns() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

class Tracer {
 public:
  static constexpr uint32_t kNoParent = UINT32_MAX;

  struct Span {
    const char* name;  ///< string literal
    uint64_t start_ns;
    uint64_t end_ns;
    uint32_t parent;  ///< index into spans(), or kNoParent
    uint64_t run;
  };

  /// Tracing off: open()/close() record nothing.
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  /// Start a span under the innermost open one; returns its index.
  uint32_t open(const char* name, uint64_t run);
  void close(uint32_t idx);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per span name, summed over every recorded span (ns).
  std::map<std::string, uint64_t> self_ns() const;

  /// Write at most `max_spans` spans (the earliest) as Chrome Trace Event
  /// JSON.  Returns false when the file cannot be written.
  bool write_chrome_json(const std::string& path, size_t max_spans) const;

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;  ///< stack of open span indices
};

/// RAII span: `Scope s(tracer, "scenario.advance", run);`.
class Scope {
 public:
  Scope(Tracer& t, const char* name, uint64_t run)
      : t_(t), idx_(t.on() ? t.open(name, run) : Tracer::kNoParent) {}
  ~Scope() {
    if (idx_ != Tracer::kNoParent) t_.close(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  uint32_t idx_;
};

}  // namespace gmpbench

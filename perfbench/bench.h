// Shared pieces of the repository benchmark (README.md): run options, the
// metric sheet a workload fills, the benchmark's own span recorder, and
// small statistics helpers. Everything here lives in the benchmark; the
// program's own obs tracing stays off in every run.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-check of the output checks: perturb every expected MEM set so
  /// each comparison or reply must be counted as wrong.
  bool inject_mismatch = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one measurement pass of a workload produced. `metrics` holds every
/// end-to-end and per-layer value the workload has; run.py reports a
/// per-layer name the workload lacks as 0.
struct Report {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Guards that make the numbers meaningful (cache warm, modeled time
  /// repeating, ...); any false guard marks the run incorrect.
  bool guards_ok = true;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void guard(bool ok, const std::string& what);
};

// --- spans ------------------------------------------------------------------

/// One recorded interval on the benchmark's wall clock.
struct SpanRecord {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  std::int64_t parent = -1;      ///< index into the span list; -1 = root
  std::uint64_t request_id = 0;  ///< shared by all spans of one request
};

/// In-memory span store, written out when the run ends. Recording is off
/// unless enabled; timing for the metrics never depends on it. Thread-safe:
/// spans nest per thread through a thread-local stack of open spans.
class Tracer {
 public:
  static Tracer& get();

  void enable(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(); }

  double now() const;
  /// Opens a span under the innermost open span of this thread; returns its
  /// index (or -1 when disabled).
  std::int64_t open(const std::string& name, std::uint64_t request_id);
  void close(std::int64_t index);
  /// Records an already measured interval as a closed child of `parent`
  /// (used for server-reported queue/service durations inside a client
  /// round trip). Thread-safe.
  void add(const std::string& name, double start_s, double end_s,
           std::int64_t parent, std::uint64_t request_id);

  /// Copy of every recorded span; call once recording threads are joined.
  std::vector<SpanRecord> spans();

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::vector<SpanRecord> spans_;  ///< guarded by mu_
  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
};

/// RAII span; a no-op when tracing is off.
class Span {
 public:
  explicit Span(const std::string& name, std::uint64_t request_id = 0)
      : index_(Tracer::get().open(name, request_id)) {}
  ~Span() { Tracer::get().close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::int64_t index() const { return index_; }

 private:
  std::int64_t index_;
};

/// Prints, for every root span name, a table of summed self times by span
/// name plus an `unattributed` row (the roots' own self time); the rows of
/// one table add up to the summed duration of its roots.
void print_self_time_tables(const std::string& workload, std::ostream& out);

// --- helpers ----------------------------------------------------------------

/// Sorted-sample quantile, linearly interpolated between the two nearest
/// ranks; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Process peak resident set in MB (getrusage ru_maxrss).
double peak_rss_mb();

/// Seconds since `t0` on the steady clock.
inline double since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// --- workloads --------------------------------------------------------------

Report run_batch_native(const Options& opt, double budget_s);
Report run_batch_simt(const Options& opt, double budget_s);
Report run_serve(const Options& opt, double budget_s);

}  // namespace perfbench

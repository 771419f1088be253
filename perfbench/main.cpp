// perfbench: the repository benchmark binary (README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload in this process, checks every output, and prints
// informational `# ...` lines followed by one `REPORT {...}` line holding
// every metric the workload measured. run.py selects the end-to-end or
// per-layer metrics named in BENCHMARK.json from that line.
//
// --trace 1 records the benchmark's own spans around each layer call and
// measures the per-layer metrics. Each workload also repeats part of its
// timed work with the span recorder off, in alternation with it on, and
// reports obs.trace_overhead as the ratio of the two.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.h"
#include "util/thread_pool.h"

namespace perfbench {

void Report::guard(bool ok, const std::string& what) {
  if (ok) return;
  guards_ok = false;
  std::cout << "# GUARD FAILED: " << what << "\n";
}

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

double Tracer::now() const { return since(epoch_); }

namespace {
thread_local std::vector<std::int64_t> open_spans;
}  // namespace

std::int64_t Tracer::open(const std::string& name, std::uint64_t request_id) {
  if (!enabled()) return -1;
  const double t = now();
  std::int64_t index = 0;
  {
    std::lock_guard lock(mu_);
    index = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(SpanRecord{name, t, t,
                                open_spans.empty() ? -1 : open_spans.back(),
                                request_id});
  }
  open_spans.push_back(index);
  return index;
}

void Tracer::close(std::int64_t index) {
  if (index < 0) return;
  const double t = now();
  if (!open_spans.empty() && open_spans.back() == index) open_spans.pop_back();
  std::lock_guard lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_s = t;
}

void Tracer::add(const std::string& name, double start_s, double end_s,
                 std::int64_t parent, std::uint64_t request_id) {
  if (!enabled()) return;
  std::lock_guard lock(mu_);
  spans_.push_back(SpanRecord{name, start_s, end_s, parent, request_id});
}

std::vector<SpanRecord> Tracer::spans() {
  std::lock_guard lock(mu_);
  return spans_;
}

void print_self_time_tables(const std::string& workload, std::ostream& out) {
  const std::vector<SpanRecord> spans = Tracer::get().spans();
  // Self time = own duration minus the summed durations of direct children
  // (children of one span never overlap: each is opened and closed by the
  // parent's thread in sequence, or is a disjoint server-reported interval).
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = spans[i].end_s - spans[i].start_s;
  for (const SpanRecord& s : spans)
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;

  // Attribute every span to its root and group tables by root name.
  struct Table {
    double total = 0.0;
    std::size_t roots = 0;
    std::map<std::string, double> rows;
  };
  std::map<std::string, Table> tables;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::size_t root = i;
    while (spans[root].parent >= 0) root = static_cast<std::size_t>(spans[root].parent);
    Table& t = tables[spans[root].name];
    if (root == i) {
      t.total += spans[i].end_s - spans[i].start_s;
      ++t.roots;
      t.rows["unattributed"] += self[i];
    } else {
      t.rows[spans[i].name] += self[i];
    }
  }
  char line[160];
  for (const auto& [root, t] : tables) {
    out << "# self-time table: " << workload << ", root `" << root << "` x"
        << t.roots << "\n";
    std::snprintf(line, sizeof line, "#   %-22s %12s %12s %8s\n", "span",
                  "total_ms", "per_root_ms", "share");
    out << line;
    double sum = 0.0;
    for (const auto& [name, s] : t.rows) {
      sum += s;
      std::snprintf(line, sizeof line, "#   %-22s %12.3f %12.4f %7.1f%%\n",
                    name.c_str(), s * 1e3, s * 1e3 / static_cast<double>(t.roots),
                    t.total > 0 ? 100.0 * s / t.total : 0.0);
      out << line;
    }
    std::snprintf(line, sizeof line, "#   %-22s %12.3f %12.4f (rows sum %.3f ms)\n",
                  "end-to-end", t.total * 1e3,
                  t.total * 1e3 / static_cast<double>(t.roots), sum * 1e3);
    out << line;
  }
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

Report run_workload(const Options& opt, double budget_s) {
  if (opt.workload == "batch-native") return run_batch_native(opt, budget_s);
  if (opt.workload == "batch-simt") return run_batch_simt(opt, budget_s);
  if (opt.workload == "serve-reads") return run_serve(opt, budget_s);
  throw std::invalid_argument("unknown workload '" + opt.workload + "'");
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") opt.workload = value;
    else if (flag == "--seed") opt.seed = std::stoull(value);
    else if (flag == "--seconds") opt.seconds = std::stod(value);
    else if (flag == "--trace") opt.trace = value == "1";
    else if (flag == "--inject-mismatch") opt.inject_mismatch = value == "1";
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (opt.workload.empty()) throw std::invalid_argument("need --workload");
  if (!(opt.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return opt;
}

void print_report(const Report& r) {
  std::printf("REPORT {\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.failed == 0 && r.guards_ok ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  const char* sep = "";
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), m.value, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  try {
    opt = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
#ifndef NDEBUG
  std::cerr << "perfbench: refusing to report from a build with assertions on\n";
  return 2;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "perfbench: refusing to report from a " << PERFBENCH_BUILD_TYPE
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }
  const char* env_threads = std::getenv("GPUMEM_THREADS");
  std::cout << "# config {\"workload\": \"" << opt.workload
            << "\", \"seed\": " << opt.seed << ", \"seconds\": " << opt.seconds
            << ", \"trace\": " << (opt.trace ? 1 : 0)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"host_pool_threads\": " << gm::util::ThreadPool::global().size()
            << ", \"GPUMEM_THREADS\": \"" << (env_threads ? env_threads : "")
            << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\"}\n";
  try {
    Tracer::get().enable(opt.trace);
    Report report = run_workload(opt, opt.seconds);
    Tracer::get().enable(false);
    if (opt.trace) print_self_time_tables(opt.workload, std::cout);
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    report.set("error_rate",
               static_cast<double>(report.failed) /
                   static_cast<double>(std::max<std::uint64_t>(1, report.attempted)),
               "ratio");
    std::cout.flush();
    print_report(report);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

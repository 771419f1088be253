// Batch workloads: one cold comparison at a time, closed loop, one caller.
//
//   batch-native  chr1m_s/chr2h_s full preset, native backend, L=50, ℓs=13
//                 (the gpumem_cli defaults): build_native_index, then
//                 run_native_prebuilt. Checked against copMEM.
//   batch-simt    chrXc_s/chrXh_s at scale 2, SIMT backend, L=30, ℓs=11,
//                 τ=256, 104 blocks/tile, stream overlap on: Engine::run.
//                 Checked against the native pipeline.
#include <iostream>
#include <sstream>

#include "bench.h"
#include "core/pipeline.h"
#include "mem/copmem.h"
#include "seq/fasta.h"
#include "seq/synthetic.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using gm::mem::Mem;

/// Drops the last MEM so every later comparison against it must fail.
void perturb(std::vector<Mem>& expected) {
  if (!expected.empty()) expected.pop_back();
}

struct Inputs {
  gm::seq::Sequence ref;
  gm::seq::Sequence query;
};

/// The CLI's set-up before a comparison: parse the pair's reference and
/// query FASTA text into sequences and construct the engine. Timed
/// kSetupReps times after every comparison, so the median of a run holds
/// tens of samples spread evenly across it: one set-up is tens of ms, and
/// the host's single-thread speed wanders by up to 2x over seconds.
class Setup {
 public:
  Setup(const std::vector<gm::seq::DatasetPair>& pairs, const gm::core::Config& cfg)
      : cfg_(cfg) {
    for (const auto& p : pairs) {
      std::ostringstream ref_text, query_text;
      gm::seq::write_fasta(ref_text, "reference", p.reference);
      gm::seq::write_fasta(query_text, "query", p.query);
      texts_.push_back(ref_text.str());
      texts_.push_back(query_text.str());
    }
  }

  /// One timed set-up of pair `p`; returns the parsed pair.
  Inputs run(std::size_t p) {
    Inputs in;
    const auto t0 = Clock::now();
    std::istringstream rs(texts_[2 * p]), qs(texts_[2 * p + 1]);
    in.ref = std::move(gm::seq::read_fasta(rs).front().sequence);
    in.query = std::move(gm::seq::read_fasta(qs).front().sequence);
    const gm::core::Engine engine(cfg_);
    times_.push_back(since(t0));
    return in;
  }

  double median_s() const { return median(times_); }

 private:
  gm::core::Config cfg_;
  std::vector<std::string> texts_;
  std::vector<double> times_;
};

constexpr int kSetupReps = 3;

/// Sets up every pair once and checks the result reproduces the generated
/// inputs.
std::vector<Inputs> first_setup(Setup& setup, const std::vector<gm::seq::DatasetPair>& pairs,
                                Report& report) {
  std::vector<Inputs> in;
  bool same = true;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    in.push_back(setup.run(i));
    same = same && in[i].ref == pairs[i].reference && in[i].query == pairs[i].query;
  }
  report.guard(same, "FASTA round trip reproduces the generated inputs");
  return in;
}

/// `count` instances of a dataset preset, drawn from the run's seed.
std::vector<gm::seq::DatasetPair> make_pairs(const char* preset, std::uint64_t seed,
                                             std::size_t scale, std::size_t count) {
  std::vector<gm::seq::DatasetPair> pairs;
  for (std::size_t i = 0; i < count; ++i)
    pairs.push_back(gm::seq::make_dataset(preset, seed * 1000 + i, scale));
  return pairs;
}

void print_inputs(const char* preset, std::uint64_t seed,
                  const std::vector<Inputs>& in, std::size_t expected_mems) {
  std::cout << "# inputs {\"preset\": \"" << preset << "\", \"seed\": " << seed
            << ", \"pairs\": " << in.size() << ", \"ref_bp\": [";
  for (std::size_t i = 0; i < in.size(); ++i) std::cout << (i ? ", " : "") << in[i].ref.size();
  std::cout << "], \"query_bp\": [";
  for (std::size_t i = 0; i < in.size(); ++i) std::cout << (i ? ", " : "") << in[i].query.size();
  std::cout << "], \"expected_mems\": " << expected_mems << "}\n";
}

/// One timed comparison: host wall seconds of the timed layer calls, and
/// the run's stats.
struct Timing {
  double wall_s = 0.0;
  double build_s = 0.0;  ///< native index build (batch-native only)
  bool traced = false;   ///< spans were recorded around it
  gm::core::RunStats stats;
};

/// Runs `compare(pair, request_id)` one comparison at a time: a discarded
/// warm-up on pair 0, then comparisons cycling over the pairs (at least two
/// rounds) while one more of the mean length fits the budget, each followed
/// by kSetupReps timed set-ups of its pair. In a traced run, spans are
/// recorded in odd rounds only, so obs.trace_overhead compares the same
/// protocol with the recorder on and off. Returns the timed comparisons per
/// pair.
template <typename Compare>
std::vector<std::vector<Timing>> closed_loop(std::size_t pairs, double budget_s,
                                             Setup& setup, Compare&& compare) {
  std::vector<std::vector<Timing>> per_pair(pairs);
  const bool trace = Tracer::get().enabled();
  Tracer::get().enable(false);
  const Timing warm = compare(0, 0);
  std::cout << "# warm-up comparison " << warm.wall_s << " s (discarded)\n";
  const auto t_start = Clock::now();
  double round_s = 0.0;
  for (std::size_t i = 0; i < 2 * pairs || since(t_start) * (i + 1) / i <= budget_s; ++i) {
    const std::size_t p = i % pairs, round = i / pairs;
    Tracer::get().enable(trace && round % 2 == 1);
    per_pair[p].push_back(compare(p, i + 1));
    per_pair[p].back().traced = Tracer::get().enabled();
    round_s += per_pair[p].back().wall_s;
    for (int rep = 0; rep < kSetupReps; ++rep) setup.run(p);
    if (p + 1 == pairs) {
      std::cout << "# round " << round << ": " << round_s << " s over " << pairs
                << " pair(s); set-up median so far " << setup.median_s() << " s\n";
      round_s = 0.0;
    }
  }
  Tracer::get().enable(trace);
  return per_pair;
}

/// Mean over pairs of each pair's median: the median keeps one slow
/// comparison from moving a pair, the mean weighs every pair's data alike.
template <typename Field>
double mean_of_medians(const std::vector<std::vector<Timing>>& per_pair, Field field) {
  double sum = 0.0;
  for (const auto& runs : per_pair) {
    std::vector<double> v;
    for (const Timing& t : runs) v.push_back(field(t));
    sum += median(v);
  }
  return sum / static_cast<double>(per_pair.size());
}

/// End-to-end metrics of a closed loop with one caller: each comparison is
/// due when the previous one completes, so its latency is its wall time and
/// throughput_qps is comparisons per busy second of one round over the
/// pairs at each pair's median time — 1 / wall_s, the same statistic read as
/// a rate. (Comparisons over summed walls would weigh a slow outlier fully
/// and, as the loop ends within a round, each pair by how many of its
/// comparisons fitted the budget.)
void set_closed_loop_metrics(const std::vector<std::vector<Timing>>& per_pair,
                             Report& r) {
  std::vector<double> walls;
  for (const auto& runs : per_pair)
    for (const Timing& t : runs) walls.push_back(t.wall_s);
  const double wall = mean_of_medians(per_pair, [](const Timing& t) { return t.wall_s; });
  r.set("wall_s", wall, "s");
  r.set("p50_ms", quantile(walls, 0.5) * 1e3, "ms");
  r.set("p99_ms", quantile(walls, 0.99) * 1e3, "ms");
  r.set("throughput_qps", 1.0 / wall, "1/s");
  r.set("samples", static_cast<double>(walls.size()), "count");
  if (Tracer::get().enabled()) {
    std::vector<double> on, off;
    for (const auto& runs : per_pair)
      for (const Timing& t : runs) (t.traced ? on : off).push_back(t.wall_s);
    r.set("obs.trace_overhead", median(on) / median(off), "ratio");
  }
}

/// Work counts summed over pairs; each must repeat exactly on every
/// comparison of its pair.
void set_work_counts(const std::vector<std::vector<Timing>>& per_pair, Report& r) {
  double mems = 0, pieces = 0, rounds = 0;
  bool repeat = true;
  for (const auto& runs : per_pair) {
    const gm::core::RunStats& s0 = runs.front().stats;
    for (const Timing& t : runs)
      repeat = repeat && t.stats.mem_count == s0.mem_count &&
               t.stats.outtile_pieces == s0.outtile_pieces &&
               t.stats.overflow_rounds == s0.overflow_rounds &&
               t.stats.kernels_launched == s0.kernels_launched &&
               t.stats.modeled_makespan_seconds == s0.modeled_makespan_seconds &&
               t.stats.index_seconds == s0.index_seconds;
    mems += static_cast<double>(s0.mem_count);
    pieces += static_cast<double>(s0.outtile_pieces);
    rounds += static_cast<double>(s0.overflow_rounds);
  }
  // Work counts and modeled device time are pure functions of the inputs:
  // they must repeat to the last bit, or the run depends on scheduling.
  r.guard(repeat, "work counts and modeled device time repeat exactly");
  r.set("core.mems", mems, "count");
  r.set("core.outtile_pieces", pieces, "count");
  r.set("core.overflow_rounds", rounds, "count");
}

}  // namespace

Report run_batch_native(const Options& opt, double budget_s) {
  const char* preset = "chr1m_s/chr2h_s";
  // The native cost is dominated by the data-independent 4^ℓs tables, so one
  // pair per run is steady.
  const auto pairs = make_pairs(preset, opt.seed, 1, 1);
  gm::core::Config cfg;
  cfg.backend = gm::core::Backend::kNative;
  cfg.min_length = 50;
  cfg.seed_len = 13;

  // Independent reference: copMEM double sampling (arXiv 1805.08816).
  std::vector<std::vector<Mem>> expected;
  for (const auto& p : pairs) {
    gm::mem::CopMemFinder copmem;
    gm::mem::FinderOptions fopt;
    fopt.min_length = cfg.min_length;
    copmem.build_index(p.reference, fopt);
    expected.push_back(copmem.find(p.query));
    if (opt.inject_mismatch) perturb(expected.back());
  }

  Report r;
  Setup setup(pairs, cfg);
  const std::vector<Inputs> in = first_setup(setup, pairs, r);
  print_inputs(preset, opt.seed, in, expected[0].size());
  const gm::core::Engine engine(cfg);

  double table_bytes = 0.0;
  const auto per_pair = closed_loop(in.size(), budget_s, setup, [&](std::size_t p, std::uint64_t id) {
    const Span pair_span("pair", id);
    Timing t;
    const auto t0 = Clock::now();
    gm::core::Engine::NativeIndex index;
    {
      const Span s("index.build", id);
      index = engine.build_native_index(in[p].ref);
    }
    t.build_s = since(t0);
    gm::core::Result result;
    {
      const Span s("core.match", id);
      result = engine.run_native_prebuilt(in[p].ref, in[p].query, index);
    }
    t.wall_s = since(t0);
    t.stats = result.stats;
    ++r.attempted;
    {
      const Span s("check", id);
      if (result.mems != expected[p]) ++r.failed;
    }
    table_bytes = 0.0;
    for (const auto& row : index.rows) table_bytes += static_cast<double>(row.bytes());
    return t;
  });

  r.set("setup_s", setup.median_s(), "s");
  set_closed_loop_metrics(per_pair, r);
  set_work_counts(per_pair, r);
  const double build = mean_of_medians(per_pair, [](const Timing& t) { return t.build_s; });
  r.set("index.build_s", build, "s");
  r.set("index.table_mb", table_bytes / (1 << 20), "MB");
  r.set("core.match_s",
        mean_of_medians(per_pair, [](const Timing& t) { return t.wall_s - t.build_s; }), "s");
  std::cout << "# shape: index.build_s / wall_s = " << build / r.metrics["wall_s"].value << "\n";
  return r;
}

Report run_batch_simt(const Options& opt, double budget_s) {
  const char* preset = "chrXc_s/chrXh_s";
  // Modeled and wall time vary by tens of percent between instances of this
  // preset (repeat placement drives the block load), so each run cycles
  // through sixteen of them and reports means over pairs: over five seeds,
  // the mean modeled time of eight pairs spread 23% (interquartile range
  // over median), of sixteen 12%; over ten seeds, the wall_s of sixteen
  // pairs spread 3%.
  const auto pairs = make_pairs(preset, opt.seed, 2, 16);
  gm::core::Config cfg;
  cfg.backend = gm::core::Backend::kSimt;
  cfg.min_length = 30;
  cfg.seed_len = 11;
  cfg.threads = 256;
  cfg.tile_blocks = 104;
  cfg.overlap = true;

  // Independent reference: the native backend of the same tiling pipeline.
  gm::core::Config native_cfg = cfg;
  native_cfg.backend = gm::core::Backend::kNative;
  std::vector<std::vector<Mem>> expected;
  for (const auto& p : pairs) {
    expected.push_back(gm::core::Engine(native_cfg).run(p.reference, p.query).mems);
    if (opt.inject_mismatch) perturb(expected.back());
  }

  Report r;
  Setup setup(pairs, cfg);
  const std::vector<Inputs> in = first_setup(setup, pairs, r);
  std::size_t total_expected = 0;
  for (const auto& e : expected) total_expected += e.size();
  print_inputs(preset, opt.seed, in, total_expected);
  const gm::core::Engine engine(cfg);

  const auto per_pair = closed_loop(in.size(), budget_s, setup, [&](std::size_t p, std::uint64_t id) {
    const Span pair_span("pair", id);
    Timing t;
    const auto t0 = Clock::now();
    gm::core::Result result;
    {
      const Span s("simt.run", id);
      result = engine.run(in[p].ref, in[p].query);
    }
    t.wall_s = since(t0);
    t.stats = result.stats;
    ++r.attempted;
    {
      const Span s("check", id);
      if (result.mems != expected[p]) ++r.failed;
    }
    return t;
  });

  r.set("setup_s", setup.median_s(), "s");
  set_closed_loop_metrics(per_pair, r);
  set_work_counts(per_pair, r);
  // Two clocks: modeled seconds come from the device ledger, wall seconds
  // from the host; they are reported side by side and never added.
  const auto mean_stat = [&](auto field) {
    double sum = 0.0;
    for (const auto& runs : per_pair) sum += field(runs.front().stats);
    return sum / static_cast<double>(per_pair.size());
  };
  const auto kernel_s = [](const gm::core::RunStats& s, const std::string& prefix) {
    double sum = 0.0;
    for (const auto& k : s.kernel_breakdown)
      if (k.label.rfind(prefix, 0) == 0) sum += k.seconds;
    return sum;
  };
  using Stats = gm::core::RunStats;
  const double modeled = mean_stat([](const Stats& s) { return s.modeled_makespan_seconds; });
  r.set("modeled_device_s", modeled, "s");
  r.set("core.stitch_s",
        mean_of_medians(per_pair, [](const Timing& t) { return t.stats.host_stitch_seconds; }),
        "s");
  r.set("simt.index_modeled_s", mean_stat([](const Stats& s) { return s.index_seconds; }), "s");
  // match_seconds folds in the measured host-stitch wall time; the modeled
  // part is what remains once that is taken out.
  r.set("simt.match_modeled_s",
        mean_stat([](const Stats& s) { return s.device_match_seconds(); }), "s");
  r.set("simt.kernel.index_s", mean_stat([&](const Stats& s) { return kernel_s(s, "index/"); }), "s");
  r.set("simt.kernel.match_s", mean_stat([&](const Stats& s) { return kernel_s(s, "match"); }), "s");
  r.set("simt.kernel.tile_combine_s",
        mean_stat([&](const Stats& s) { return kernel_s(s, "tile-combine"); }), "s");
  r.set("simt.kernels",
        mean_stat([](const Stats& s) { return static_cast<double>(s.kernels_launched); }), "count");
  r.set("simt.peak_device_mb",
        mean_stat([](const Stats& s) { return static_cast<double>(s.device_peak_bytes); }) / (1 << 20),
        "MB");
  r.set("simt.wall_per_modeled", r.metrics["wall_s"].value / modeled, "ratio");
  return r;
}

}  // namespace perfbench

#include "core/pipeline.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/host_stitch.h"
#include "core/index_kernels.h"
#include "mem/clip.h"
#include "mem/copmem.h"
#include "core/match_kernel.h"
#include "core/tile_kernel.h"
#include "index/kmer_index.h"
#include "obs/registry.h"
#include "simt/buffer.h"
#include "simt/stream.h"
#include "util/bits.h"
#include "util/timer.h"

namespace gm::core {
namespace {

constexpr mem::Mem kSentinel{0xFFFFFFFFu, 0u, 0u};

/// Tiles of `tile_len` bases needed to cover a sequence of `bases`.
std::uint32_t tile_count(std::size_t bases, std::uint32_t tile_len) {
  return static_cast<std::uint32_t>(
      util::ceil_div<std::size_t>(bases, tile_len));
}

/// Everything one tile produced, after overflow retries, host-fallback
/// rounds, and the tile-level combine.
struct TileResult {
  std::vector<mem::Mem> inblock;      ///< reported at block level
  std::vector<mem::Mem> intile;       ///< reported by the tile combine
  std::vector<mem::Mem> outtile;      ///< pieces for the final host merge
  std::uint64_t overflow_rounds = 0;  ///< rounds that fell back to the host
  std::size_t outblock_pieces = 0;    ///< combine input size (observability)
};

/// The complete device work of one tile: match kernel with
/// doubling-capacity retries, host fallback for overflowed rounds, and the
/// tile-level combine with its own retries. `cap_in`/`cap_out` are the
/// caller's adaptive capacities — grown in place so later tiles start at
/// the learned size. Works identically under serial execution and inside a
/// stream closure: every retry rolls back the ledger, the trace, and any
/// captured segments together.
TileResult process_tile(simt::Device& dev, const Config& cfg,
                        const Config::Geometry& g, const seq::Sequence& ref,
                        const seq::Sequence& query, const DeviceIndex& index,
                        const Rect& tile, std::uint32_t& cap_in,
                        std::uint32_t& cap_out) {
  TileResult outs;
  std::vector<mem::Mem> outblock;

  // ---- match kernel over the tile's blocks, retrying on overflow ---------
  for (;;) {
    const simt::PerfLedger::Snapshot snap = dev.ledger().snapshot();
    const std::size_t trace_mark =
        obs::enabled() ? obs::Registry::global().trace().size() : 0;
    const std::size_t seg_mark = dev.segment_mark();
    simt::Buffer<mem::Mem> scratch(
        dev, std::size_t{cfg.tile_blocks} * cfg.round_capacity);
    simt::Buffer<mem::Mem> inblock_buf(dev, cap_in);
    simt::Buffer<mem::Mem> outblock_buf(dev, cap_out);
    simt::Buffer<std::uint32_t> in_count(dev, 1);
    simt::Buffer<std::uint32_t> out_count(dev, 1);
    simt::Buffer<std::uint8_t> overflow(dev,
                                        std::size_t{cfg.tile_blocks} * g.w);
    in_count[0] = out_count[0] = 0;
    std::fill_n(overflow.data(), overflow.size(), std::uint8_t{0});

    MatchParams params;
    params.ref = &ref;
    params.query = &query;
    params.ptrs = index.ptrs.span();
    params.locs = index.locs.span();
    params.tile = tile;
    params.seed_len = cfg.seed_len;
    params.w = g.w;
    params.min_len = cfg.min_length;
    params.round_capacity = cfg.round_capacity;
    params.block_width = g.block_width;
    params.load_balance = cfg.load_balance;
    params.combine = cfg.combine;
    params.scratch = scratch.span();
    params.inblock = inblock_buf.span();
    params.inblock_count = in_count.span();
    params.outblock = outblock_buf.span();
    params.outblock_count = out_count.span();
    params.overflow = overflow.span();

    launch_match_kernel(dev, cfg.tile_blocks, cfg.threads, params);

    if (in_count[0] > cap_in || out_count[0] > cap_out) {
      if (in_count[0] > cap_in) {
        cap_in = static_cast<std::uint32_t>(util::ceil_pow2(in_count[0]));
      }
      if (out_count[0] > cap_out) {
        cap_out = static_cast<std::uint32_t>(util::ceil_pow2(out_count[0]));
      }
      dev.ledger().rollback(snap);
      if (obs::enabled()) {
        obs::Registry::global().trace().truncate(trace_mark);
      }
      dev.segment_truncate(seg_mark);
      continue;
    }

    outs.inblock = inblock_buf.download(in_count[0]);
    outblock = outblock_buf.download(out_count[0]);

    // Host fallback for rounds whose load exceeded the scratch capacity.
    for (std::uint32_t b = 0; b < cfg.tile_blocks; ++b) {
      for (std::uint32_t rnd = 0; rnd < g.w; ++rnd) {
        if (!overflow[std::size_t{b} * g.w + rnd]) continue;
        ++outs.overflow_rounds;
        process_round_host(params, b, rnd, cfg.threads, outs.inblock,
                           outblock);
      }
    }
    break;
  }
  outs.outblock_pieces = outblock.size();

  // ---- tile-level combine ------------------------------------------------
  if (!outblock.empty()) {
    for (;;) {
      const simt::PerfLedger::Snapshot snap = dev.ledger().snapshot();
      const std::size_t trace_mark =
          obs::enabled() ? obs::Registry::global().trace().size() : 0;
      const std::size_t seg_mark = dev.segment_mark();
      const std::size_t padded = util::ceil_pow2(outblock.size());
      simt::Buffer<mem::Mem> triplets(dev, padded);
      std::copy(outblock.begin(), outblock.end(), triplets.data());
      std::fill(triplets.data() + outblock.size(), triplets.data() + padded,
                kSentinel);
      dev.account_copy(outblock.size() * sizeof(mem::Mem));
      simt::Buffer<std::uint8_t> run_start(dev, outblock.size());
      simt::Buffer<mem::Mem> intile_buf(dev, cap_in);
      simt::Buffer<mem::Mem> outtile_buf(dev, cap_out);
      simt::Buffer<std::uint32_t> in_count(dev, 1);
      simt::Buffer<std::uint32_t> out_count(dev, 1);
      in_count[0] = out_count[0] = 0;

      TileCombineParams tc;
      tc.ref = &ref;
      tc.query = &query;
      tc.tile = tile;
      tc.min_len = cfg.min_length;
      tc.triplets = triplets.span();
      tc.count = static_cast<std::uint32_t>(outblock.size());
      tc.run_start = run_start.span();
      tc.intile = intile_buf.span();
      tc.intile_count = in_count.span();
      tc.outtile = outtile_buf.span();
      tc.outtile_count = out_count.span();

      launch_tile_combine(dev, cfg.threads, tc);

      if (in_count[0] > cap_in || out_count[0] > cap_out) {
        if (in_count[0] > cap_in) {
          cap_in = static_cast<std::uint32_t>(util::ceil_pow2(in_count[0]));
        }
        if (out_count[0] > cap_out) {
          cap_out = static_cast<std::uint32_t>(util::ceil_pow2(out_count[0]));
        }
        dev.ledger().rollback(snap);
        if (obs::enabled()) {
          obs::Registry::global().trace().truncate(trace_mark);
        }
        dev.segment_truncate(seg_mark);
        continue;
      }
      outs.intile = intile_buf.download(in_count[0]);
      outs.outtile = outtile_buf.download(out_count[0]);
      break;
    }
  }
  return outs;
}

}  // namespace

void publish_run_stats(const RunStats& stats) {
  if (!obs::enabled()) return;
  obs::Metrics& m = obs::Registry::global().metrics();
  const auto set = [&m](const std::string& name, double v,
                        const std::string& help = {}) {
    m.gauge(name, help).set(v);
  };
  set("run.index_seconds", stats.index_seconds,
      "index-generation time (paper Table III)");
  set("run.match_seconds", stats.match_seconds,
      "MEM-extraction time incl. host merge (paper Table IV)");
  set("run.host_stitch_seconds", stats.host_stitch_seconds,
      "measured host out-tile merge portion of match_seconds");
  set("run.device_match_seconds", stats.device_match_seconds(),
      "match_seconds minus the host merge");
  set("run.modeled_makespan_seconds", stats.modeled_makespan_seconds,
      "modeled device seconds first-to-last op (overlap shrinks this)");
  set("run.wall_seconds", stats.wall_seconds, "host wall clock of the run");
  set("run.mem_count", static_cast<double>(stats.mem_count));
  set("run.tile_rows", stats.tile_rows);
  set("run.tile_cols", stats.tile_cols);
  set("run.inblock_mems", static_cast<double>(stats.inblock_mems));
  set("run.intile_mems", static_cast<double>(stats.intile_mems));
  set("run.outtile_pieces", static_cast<double>(stats.outtile_pieces));
  set("run.overflow_rounds", static_cast<double>(stats.overflow_rounds));
  set("run.kernels_launched", static_cast<double>(stats.kernels_launched));
  set("run.device_peak_bytes", static_cast<double>(stats.device_peak_bytes));
  set("run.index_cache_hit", stats.index_cache_hit ? 1.0 : 0.0,
      "1 when every tile-row index was served prebuilt (no build work)");
  set("run.trace_id", static_cast<double>(stats.trace_id),
      "trace id of the last published run (0 = standalone)");
  for (const RunStats::KernelStat& ks : stats.kernel_breakdown) {
    m.gauge("kernel." + ks.label + ".seconds").set(ks.seconds);
    m.gauge("kernel." + ks.label + ".launches")
        .set(static_cast<double>(ks.launches));
  }
  // Host wall-time phase distributions: unlike the run.* gauges (last run
  // only), these accumulate across runs so a serve replay or multi-query
  // batch yields count/mean/min/max per phase (docs/OBSERVABILITY.md).
  const auto phase_ns = [&m](const char* name, double seconds,
                             const char* help) {
    m.distribution(std::string("host.phase_ns.") + name, help)
        .observe(seconds * 1e9);
  };
  phase_ns("index", stats.index_seconds,
           "host wall ns spent building row indexes, per run");
  phase_ns("match", stats.device_match_seconds(),
           "host wall ns spent matching (excl. out-tile merge), per run");
  phase_ns("stitch", stats.host_stitch_seconds,
           "host wall ns spent in the out-tile merge, per run");
  phase_ns("total", stats.wall_seconds, "host wall ns per run end to end");
}

Result Engine::run(const seq::Sequence& ref, const seq::Sequence& query) const {
  if (cfg_.backend != Backend::kSimt) return run_native(ref, query);
  simt::Device dev(cfg_.device);
  const PoolMember whole{&dev, nullptr, 0,
                         tile_count(ref.size(), cfg_.validated().tile_len)};
  return run_pool(ref, query, {&whole, 1});
}

Engine::NativeIndex Engine::build_native_index(const seq::Sequence& ref) const {
  const Config::Geometry g = cfg_.validated();
  if (cfg_.observe) obs::Registry::global().set_enabled(true);
  obs::Span span("index/build-native", "index");
  NativeIndex out;
  util::Timer timer;
  const std::uint32_t n_r = tile_count(ref.size(), g.tile_len);
  out.rows.reserve(n_r);
  std::uint64_t bytes = 0;
  for (std::uint32_t row = 0; row < n_r; ++row) {
    const std::size_t r0 = std::size_t{row} * g.tile_len;
    const std::size_t r1 = std::min(ref.size(), r0 + g.tile_len);
    bytes += out.rows.emplace_back(ref, r0, r1, cfg_.seed_len, g.step).bytes();
  }
  out.build_seconds = timer.seconds();
  span.attr("rows", std::uint64_t{n_r});
  span.attr("bytes", bytes);
  return out;
}

Result Engine::run_native_prebuilt(const seq::Sequence& ref,
                                   const seq::Sequence& query,
                                   const NativeIndex& prebuilt) const {
  return run_native(ref, query, &prebuilt);
}

Result Engine::run_fast_index(const seq::Sequence& ref,
                              const seq::Sequence& query) const {
  (void)cfg_.validated();  // Eq. 1 implies seed_len <= min_length
  util::Timer wall;
  mem::CopMemFinder finder;
  finder.set_seed_len(cfg_.seed_len);
  mem::FinderOptions opt;
  opt.min_length = cfg_.min_length;
  opt.threads = cfg_.threads;
  finder.build_index(ref, opt);
  Result out;
  out.mems = finder.find(query);
  out.stats.index_seconds = finder.build_seconds();
  out.stats.match_seconds = finder.last_find_modeled_seconds();
  out.stats.mem_count = out.mems.size();
  out.stats.wall_seconds = wall.seconds();
  publish_run_stats(out.stats);
  return out;
}

namespace {

/// The final host merge of out-tile triplets (paper Section III-C2) and the
/// close of a run — the one place every pipeline path finishes: stitches
/// `outtile_pieces` against the full sequences, joins them to `reported`,
/// clips at invalid bases, normalizes order, and keeps MEMs of length >=
/// `min_len`. The merge is measured as RunStats::host_stitch_seconds (part
/// of match_seconds) and traced as a wall "stitch/host-merge" stage span of
/// exactly that duration, so a traced run's stage spans decompose
/// index_seconds + match_seconds. Then stamps the request's trace id and the
/// run's wall time, and publishes the stats.
void merge_and_finish(const seq::Sequence& ref, const seq::Sequence& query,
                      std::uint32_t min_len, std::vector<mem::Mem> reported,
                      std::vector<mem::Mem> outtile_pieces,
                      const util::Timer& wall, Result& result) {
  RunStats& stats = result.stats;
  const double stitch_start_us =
      obs::enabled() ? obs::Registry::global().wall_now_us() : 0.0;
  util::Timer host_merge;
  stats.outtile_pieces = outtile_pieces.size();
  std::erase_if(reported, [&](const mem::Mem& m) { return m.len < min_len; });
  std::vector<mem::Mem> finished =
      finalize_out_tile(ref, query, std::move(outtile_pieces), min_len);
  reported.insert(reported.end(), finished.begin(), finished.end());
  mem::clip_invalid_bases(ref, query, reported, min_len);
  mem::sort_unique(reported);
  stats.host_stitch_seconds = host_merge.seconds();
  stats.match_seconds += stats.host_stitch_seconds;
  if (obs::enabled()) {
    obs::SpanEvent ev;
    ev.name = "stitch/host-merge";
    ev.category = "stage";
    ev.clock = obs::Clock::kWall;
    ev.start_us = stitch_start_us;
    ev.duration_us = stats.host_stitch_seconds * 1e6;
    ev.attrs.push_back({"outtile_pieces", stats.outtile_pieces});
    obs::Registry::global().trace().record(std::move(ev));
  }

  result.mems = std::move(reported);
  stats.mem_count = result.mems.size();
  stats.trace_id = obs::current_trace().trace_id;
  stats.wall_seconds = wall.seconds();
  publish_run_stats(stats);
}

/// Tile row `row`'s index from `source`, checked against the engine
/// geometry.
DeviceIndex& acquire_row(const Config& cfg, const Config::Geometry& g,
                         RowIndexSource& source, simt::Device& dev,
                         const seq::Sequence& ref, std::uint32_t row,
                         bool& hit) {
  DeviceIndex& index = source.acquire(dev, ref, row, hit);
  if (index.seed_len != cfg.seed_len || index.step != g.step) {
    throw std::invalid_argument(
        "run_pool: RowIndexSource geometry does not match the engine config "
        "(seed_len/step)");
  }
  return index;
}

/// One pool member's device work over tile rows [row_begin, row_end), one
/// row after another: upload the sequences, build (or acquire) each row's
/// partial index, match every tile of the row. Appends reported MEMs and
/// out-tile pieces; when `index_source` is given, `stats.index_cache_hit`
/// reports whether every row was served warm.
void run_rows_serial(const Config& cfg, simt::Device& dev,
                     const seq::Sequence& ref, const seq::Sequence& query,
                     std::uint32_t row_begin, std::uint32_t row_end,
                     std::vector<mem::Mem>& reported,
                     std::vector<mem::Mem>& outtile_pieces, RunStats& stats,
                     RowIndexSource* index_source) {
  const Config::Geometry g = cfg.validated();
  if (ref.empty() || query.empty() || row_begin >= row_end) return;
  const double makespan_base = dev.ledger().total_seconds();

  // Sequences live on the device for the whole run (2 bits per base), like
  // the real tool; only the *index* is tile-partitioned.
  simt::Buffer<std::uint64_t> ref_dev(dev, ref.size() / 32 + 1);
  simt::Buffer<std::uint64_t> query_dev(dev, query.size() / 32 + 1);
  dev.account_copy(ref_dev.bytes() + query_dev.bytes());

  const std::uint32_t n_c = tile_count(query.size(), g.tile_len);

  const std::uint32_t max_locs =
      static_cast<std::uint32_t>(g.tile_len / g.step) + 2;
  // Build-per-run path owns one index rebuilt per row; the prebuilt path
  // borrows resident indexes from the source instead.
  std::optional<DeviceIndex> local_index;
  if (index_source == nullptr) {
    local_index.emplace(dev, cfg.seed_len, g.step, max_locs);
  }
  std::uint32_t rows_hit = 0;

  std::uint32_t cap_out = cfg.output_capacity;
  std::uint32_t cap_in = cfg.output_capacity;

  for (std::uint32_t row = row_begin; row < row_end; ++row) {
    const std::uint32_t r0 = row * g.tile_len;
    const std::uint32_t r1 = static_cast<std::uint32_t>(
        std::min<std::size_t>(ref.size(), r0 + std::size_t{g.tile_len}));
    DeviceIndex* index = nullptr;
    {
      const double before = dev.ledger().total_seconds();
      bool hit = false;
      if (index_source != nullptr) {
        index = &acquire_row(cfg, g, *index_source, dev, ref, row, hit);
      } else {
        build_partial_index(dev, ref, r0, r1, cfg.threads, *local_index);
        index = &*local_index;
      }
      rows_hit += hit;
      const double delta = dev.ledger().total_seconds() - before;
      stats.index_seconds += delta;
      if (obs::enabled()) {
        obs::flight(obs::FlightKind::kLedger, "index/build-row",
                    obs::current_trace().trace_id, delta,
                    dev.ledger().total_seconds());
        obs::record_modeled_span("index/build-row", "stage", before, delta,
                                 dev.ordinal(),
                                 {{"row", std::uint64_t{row}},
                                  {"cache_hit", std::uint64_t{hit}}});
      }
    }

    for (std::uint32_t col = 0; col < n_c; ++col) {
      const std::uint32_t c0 = col * g.tile_len;
      const std::uint32_t c1 = static_cast<std::uint32_t>(
          std::min<std::size_t>(query.size(), c0 + std::size_t{g.tile_len}));
      const Rect tile{r0, r1, c0, c1};
      const double before = dev.ledger().total_seconds();

      TileResult outs = process_tile(dev, cfg, g, ref, query, *index, tile,
                                     cap_in, cap_out);
      stats.overflow_rounds += outs.overflow_rounds;
      stats.inblock_mems += outs.inblock.size();
      stats.intile_mems += outs.intile.size();
      reported.insert(reported.end(), outs.inblock.begin(), outs.inblock.end());
      reported.insert(reported.end(), outs.intile.begin(), outs.intile.end());
      outtile_pieces.insert(outtile_pieces.end(), outs.outtile.begin(),
                            outs.outtile.end());

      const double delta = dev.ledger().total_seconds() - before;
      stats.match_seconds += delta;
      if (obs::enabled()) {
        obs::flight(obs::FlightKind::kLedger, "match/tile",
                    obs::current_trace().trace_id, delta,
                    dev.ledger().total_seconds());
        obs::record_modeled_span(
            "match/tile", "stage", before, delta, dev.ordinal(),
            {{"row", std::uint64_t{row}},
             {"col", std::uint64_t{col}},
             {"inblock_mems", std::uint64_t{outs.inblock.size()}},
             {"outblock_pieces", std::uint64_t{outs.outblock_pieces}},
             {"overflow_rounds", outs.overflow_rounds}});
      }
    }
  }

  stats.modeled_makespan_seconds +=
      dev.ledger().total_seconds() - makespan_base;
  stats.index_cache_hit =
      index_source != nullptr && rows_hit == row_end - row_begin;
}

/// Stream-overlapped variant of run_rows_serial (cfg.overlap = true):
/// double-buffered index builds, per-row tiles fanned across
/// cfg.overlap_streams worker streams, per-row host stitch on a worker
/// thread. Identical outputs and serial-sum stats; only
/// modeled_makespan_seconds (and wall clock) improve.
void run_rows_overlapped(const Config& cfg, simt::Device& dev,
                         const seq::Sequence& ref, const seq::Sequence& query,
                         std::uint32_t row_begin, std::uint32_t row_end,
                         std::vector<mem::Mem>& reported,
                         std::vector<mem::Mem>& outtile_pieces,
                         RunStats& stats, RowIndexSource* index_source) {
  const Config::Geometry g = cfg.validated();
  if (ref.empty() || query.empty() || row_begin >= row_end) return;

  const std::uint32_t n_c = tile_count(query.size(), g.tile_len);
  const std::uint32_t n_rows = row_end - row_begin;
  const std::uint32_t W = cfg.overlap_streams;

  simt::Buffer<std::uint64_t> ref_dev(dev, ref.size() / 32 + 1);
  simt::Buffer<std::uint64_t> query_dev(dev, query.size() / 32 + 1);

  simt::StreamScheduler sched(dev, cfg.overlap_shuffle_seed);
  simt::Stream& copy = sched.create_stream("copy");
  std::vector<simt::Stream*> workers;
  workers.reserve(W);
  for (std::uint32_t s = 0; s < W; ++s) {
    workers.push_back(&sched.create_stream("worker-" + std::to_string(s)));
  }

  // Sequence upload on the copy stream; every worker's first op waits it.
  simt::Event ev_upload;
  const std::size_t upload_bytes = ref_dev.bytes() + query_dev.bytes();
  copy.run("upload/sequences", [&dev, upload_bytes] {
    dev.account_copy(upload_bytes, simt::CopyDir::kH2D);
  });
  copy.record(ev_upload);
  for (simt::Stream* w : workers) w->wait(ev_upload);

  // Double-buffered row indexes: row k builds into slot k % 2, so building
  // row k+1 overlaps row k's match kernels, and building row k+2 must wait
  // until every row-k tile is done with its slot (the ev_row_done edges).
  // The cached path borrows resident indexes instead — no slot conflict.
  const std::uint32_t max_locs =
      static_cast<std::uint32_t>(g.tile_len / g.step) + 2;
  const bool double_buffer = index_source == nullptr;
  std::optional<DeviceIndex> local_index[2];
  if (double_buffer) {
    local_index[0].emplace(dev, cfg.seed_len, g.step, max_locs);
    if (n_rows > 1) {
      local_index[1].emplace(dev, cfg.seed_len, g.step, max_locs);
    }
  }

  struct RowWork {
    DeviceIndex* index = nullptr;
    bool hit = false;
    double index_seconds = 0.0;
    simt::Stream::OpId build_op = 0;
  };
  struct TileWork {
    TileResult outs;
    double match_seconds = 0.0;
    simt::Stream::OpId op = 0;
  };
  std::vector<RowWork> rows(n_rows);
  std::vector<TileWork> tiles(std::size_t{n_rows} * n_c);
  std::vector<simt::Event> ev_build(n_rows);
  std::vector<std::vector<simt::Event>> ev_row_done(n_rows);
  for (auto& per_stream : ev_row_done) per_stream.resize(W);

  // Tile -> stream mapping is static (col % W), so each stream's adaptive
  // capacities see the same tile sequence under every drain order — retries
  // and kernels_launched are interleaving-independent.
  std::vector<std::uint32_t> cap_in(W, cfg.output_capacity);
  std::vector<std::uint32_t> cap_out(W, cfg.output_capacity);

  // Host stitch worker: a completed row's MEMs are pre-sorted concurrently
  // with the rest of the drain (the tentpole's "row k-1 host stitch" leg).
  // The final sort_unique in the caller makes the pre-sort semantically
  // invisible; it just front-loads comparison work off the critical path.
  std::vector<std::vector<mem::Mem>> row_reported(n_rows);
  std::vector<std::uint32_t> row_remaining(n_rows, n_c);
  std::mutex stitch_mu;
  std::condition_variable stitch_cv;
  std::deque<std::uint32_t> stitch_queue;
  bool stitch_done = false;
  std::thread stitcher([&] {
    for (;;) {
      std::uint32_t i = 0;
      {
        std::unique_lock lk(stitch_mu);
        stitch_cv.wait(lk,
                       [&] { return stitch_done || !stitch_queue.empty(); });
        if (stitch_queue.empty()) return;
        i = stitch_queue.front();
        stitch_queue.pop_front();
      }
      mem::sort_unique(row_reported[i]);
    }
  });
  const auto finish_stitcher = [&] {
    {
      std::lock_guard lk(stitch_mu);
      stitch_done = true;
    }
    stitch_cv.notify_one();
    stitcher.join();
  };

  std::uint32_t rows_hit = 0;
  try {
    for (std::uint32_t i = 0; i < n_rows; ++i) {
      const std::uint32_t row = row_begin + i;
      const std::uint32_t r0 = row * g.tile_len;
      const std::uint32_t r1 = static_cast<std::uint32_t>(
          std::min<std::size_t>(ref.size(), r0 + std::size_t{g.tile_len}));
      simt::Stream& bs = *workers[i % W];
      if (double_buffer && i >= 2) {
        for (std::uint32_t s = 0; s < W; ++s) {
          bs.wait(ev_row_done[i - 2][s]);
        }
      }
      RowWork& rw = rows[i];
      DeviceIndex* slot = double_buffer ? &*local_index[i % 2] : nullptr;
      rw.build_op = bs.run(
          "index/build-row",
          [&cfg, &dev, &ref, &rw, &stats, &rows_hit, index_source, slot, row,
           r0, r1, g] {
            const double before = dev.ledger().total_seconds();
            if (index_source != nullptr) {
              bool hit = false;
              rw.index =
                  &acquire_row(cfg, g, *index_source, dev, ref, row, hit);
              rw.hit = hit;
              rows_hit += hit;
            } else {
              build_partial_index(dev, ref, r0, r1, cfg.threads, *slot);
              rw.index = slot;
            }
            rw.index_seconds = dev.ledger().total_seconds() - before;
            stats.index_seconds += rw.index_seconds;
          });
      bs.record(ev_build[i]);

      for (std::uint32_t s = 0; s < W; ++s) {
        simt::Stream& ws = *workers[s];
        bool first_tile = true;
        for (std::uint32_t col = s; col < n_c; col += W) {
          if (first_tile) {
            ws.wait(ev_build[i]);
            first_tile = false;
          }
          const std::uint32_t c0 = col * g.tile_len;
          const std::uint32_t c1 = static_cast<std::uint32_t>(
              std::min<std::size_t>(query.size(),
                                    c0 + std::size_t{g.tile_len}));
          const Rect tile{r0, r1, c0, c1};
          TileWork& tw = tiles[std::size_t{i} * n_c + col];
          tw.op = ws.run(
              "match/tile",
              [&cfg, &dev, &ref, &query, &rw, &tw, &stats, &cap_in, &cap_out,
               &tiles, &row_remaining, &row_reported, &stitch_mu, &stitch_cv,
               &stitch_queue, tile, g, s, i, n_c] {
                const double before = dev.ledger().total_seconds();
                tw.outs = process_tile(dev, cfg, g, ref, query, *rw.index,
                                       tile, cap_in[s], cap_out[s]);
                tw.match_seconds = dev.ledger().total_seconds() - before;
                stats.match_seconds += tw.match_seconds;
                stats.overflow_rounds += tw.outs.overflow_rounds;
                stats.inblock_mems += tw.outs.inblock.size();
                stats.intile_mems += tw.outs.intile.size();
                if (--row_remaining[i] == 0) {
                  std::vector<mem::Mem>& dst = row_reported[i];
                  for (std::uint32_t c = 0; c < n_c; ++c) {
                    TileResult& o = tiles[std::size_t{i} * n_c + c].outs;
                    dst.insert(dst.end(), o.inblock.begin(), o.inblock.end());
                    dst.insert(dst.end(), o.intile.begin(), o.intile.end());
                    o.inblock.clear();
                    o.intile.clear();
                  }
                  {
                    std::lock_guard lk(stitch_mu);
                    stitch_queue.push_back(i);
                  }
                  stitch_cv.notify_one();
                }
              });
        }
        ws.record(ev_row_done[i][s]);
      }
    }
    sched.drain();
  } catch (...) {
    finish_stitcher();
    throw;
  }
  finish_stitcher();

  stats.modeled_makespan_seconds += sched.makespan();
  stats.index_cache_hit = index_source != nullptr && rows_hit == n_rows;

  // Assemble outputs in row/tile order (per-row vectors are pre-sorted; the
  // caller's final sort_unique normalizes everything).
  for (std::uint32_t i = 0; i < n_rows; ++i) {
    reported.insert(reported.end(), row_reported[i].begin(),
                    row_reported[i].end());
  }
  for (const TileWork& tw : tiles) {
    outtile_pieces.insert(outtile_pieces.end(), tw.outs.outtile.begin(),
                          tw.outs.outtile.end());
  }

  // Stage spans, placed at the ops' overlapped intervals on per-stream
  // tracks (kernel/transfer spans were already retimed by the scheduler).
  if (obs::enabled()) {
    for (std::uint32_t i = 0; i < n_rows; ++i) {
      const simt::StreamScheduler::Interval iv = sched.interval(rows[i].build_op);
      obs::record_modeled_span(
          "index/build-row", "stage", iv.start, iv.end - iv.start,
          dev.ordinal(),
          {{"row", std::uint64_t{row_begin + i}},
           {"cache_hit", std::uint64_t{rows[i].hit}}},
          workers[i % W]->track());
    }
    for (std::uint32_t i = 0; i < n_rows; ++i) {
      for (std::uint32_t col = 0; col < n_c; ++col) {
        const TileWork& tw = tiles[std::size_t{i} * n_c + col];
        const simt::StreamScheduler::Interval iv = sched.interval(tw.op);
        obs::record_modeled_span(
            "match/tile", "stage", iv.start, iv.end - iv.start, dev.ordinal(),
            {{"row", std::uint64_t{row_begin + i}},
             {"col", std::uint64_t{col}},
             {"inblock_mems", std::uint64_t{tw.outs.inblock.size()}},
             {"outblock_pieces", std::uint64_t{tw.outs.outblock_pieces}},
             {"overflow_rounds", tw.outs.overflow_rounds}},
            workers[col % W]->track());
      }
    }
  }
}

/// The native backend's match over one tile: seeds every query position of
/// `tile` against its row index and expands each hit that starts a chain
/// (chain-interior hits are skipped, so each in-tile chain is expanded
/// exactly once: the invariant the device combine establishes). MEMs
/// touching the tile edge go to `out_sink`, in-tile ones of at least
/// `min_length` to `in_sink`; returns how many went to `in_sink`.
std::size_t scan_native_tile(const index::KmerIndex& idx,
                             const seq::Sequence& query,
                             const seq::PackedSeq& pref,
                             const seq::PackedSeq& pquery, const Rect& tile,
                             std::uint32_t step, std::uint32_t min_length,
                             std::vector<mem::Mem>& in_sink,
                             std::vector<mem::Mem>& out_sink) {
  const unsigned k = idx.seed_len();
  const std::size_t in_before = in_sink.size();
  std::uint64_t seed = 0;
  for (std::size_t j = tile.q0; j < tile.q1; ++j) {
    if (j + k > query.size()) break;
    // Roll the seed one base along rather than regather it.
    seed = j == tile.q0 ? query.kmer(j, k)
                        : seed >> 2 | std::uint64_t{query.base(j + k - 1)}
                                          << (2 * k - 2);
    for (const std::uint32_t p : idx.lookup(seed)) {
      const std::size_t back_room =
          std::min<std::size_t>(p - tile.r0, j - tile.q0);
      std::size_t back = 0;
      if (p > 0 && j > 0) {
        back = pref.lce_backward(p - 1, pquery, j - 1, back_room);
      }
      if (back >= step) continue;  // chain-interior hit
      const mem::Mem e = expand_clamped(
          pref, pquery, mem::Mem{p, static_cast<std::uint32_t>(j), k}, tile);
      if (touches_edge(e, tile)) {
        out_sink.push_back(e);
      } else if (e.len >= min_length) {
        in_sink.push_back(e);
      }
    }
  }
  return in_sink.size() - in_before;
}

}  // namespace

Result Engine::run_simt_cached(simt::Device& dev, const seq::Sequence& ref,
                               const seq::Sequence& query,
                               RowIndexSource& source) const {
  const PoolMember whole{&dev, &source, 0,
                         tile_count(ref.size(), cfg_.validated().tile_len)};
  return run_pool(ref, query, {&whole, 1});
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> Engine::partition_rows(
    const seq::Sequence& ref, std::uint32_t devices) const {
  const std::uint32_t n_r = tile_count(ref.size(), cfg_.validated().tile_len);
  const std::uint32_t per_device =
      devices == 0 ? 0 : util::ceil_div(n_r, devices);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  out.reserve(devices);
  for (std::uint32_t d = 0; d < devices; ++d) {
    const std::uint32_t begin = std::min(n_r, d * per_device);
    out.emplace_back(begin, std::min(n_r, begin + per_device));
  }
  return out;
}

Result Engine::run_pool(const seq::Sequence& ref, const seq::Sequence& query,
                        std::span<const PoolMember> pool,
                        std::uint32_t min_length,
                        std::vector<RunStats>* per_device) const {
  const Config::Geometry g = cfg_.validated();
  if (cfg_.backend != Backend::kSimt) {
    throw std::invalid_argument(
        "run_pool: only the SIMT backend runs on a device pool");
  }
  if (pool.empty()) throw std::invalid_argument("run_pool: need >= 1 device");
  if (min_length != 0 && min_length < cfg_.min_length) {
    throw std::invalid_argument(
        "run_pool: min_length below the engine's configured minimum");
  }
  if (cfg_.observe) obs::Registry::global().set_enabled(true);
  obs::Span run_span("pipeline/run", "pipeline");
  run_span.attr("backend", std::string("simt"));
  run_span.attr("ref_bp", std::uint64_t{ref.size()});
  run_span.attr("query_bp", std::uint64_t{query.size()});
  run_span.attr("devices", std::uint64_t{pool.size()});
  util::Timer wall;
  Result result;
  RunStats& total = result.stats;
  const bool has_work = !ref.empty() && !query.empty();
  const std::uint32_t n_r = has_work ? tile_count(ref.size(), g.tile_len) : 0;
  if (has_work) total.tile_cols = tile_count(query.size(), g.tile_len);

  std::vector<mem::Mem> reported;        // in-block + in-tile MEMs
  std::vector<mem::Mem> outtile_pieces;  // stitched by the host merge
  std::vector<RunStats> members(pool.size());
  bool all_warm = true;
  for (std::size_t d = 0; d < pool.size(); ++d) {
    const PoolMember& m = pool[d];
    const std::uint32_t row_end = std::min(m.row_end, n_r);
    if (m.row_begin >= row_end) continue;
    RunStats& s = members[d];
    // The device may be persistent (serve-layer pool, resident cache), so
    // all ledger-derived stats are deltas from this point, and the peak
    // watermark restarts at whatever is currently resident.
    simt::Device& dev = *m.dev;
    const simt::PerfLedger::Snapshot base = dev.ledger().snapshot();
    dev.reset_peak();
    {
      // The device ordinal tags every modeled span with its id, keeping a
      // pool's timelines on separate trace tracks.
      obs::Span device_span("device/partition", "pipeline");
      device_span.attr("device", std::uint64_t{dev.ordinal()});
      device_span.attr("row_begin", std::uint64_t{m.row_begin});
      device_span.attr("row_end", std::uint64_t{row_end});
      (cfg_.overlap ? run_rows_overlapped : run_rows_serial)(
          cfg_, dev, ref, query, m.row_begin, row_end, reported,
          outtile_pieces, s, m.index_source);
    }
    s.tile_rows = row_end - m.row_begin;
    s.tile_cols = total.tile_cols;
    s.kernels_launched = dev.ledger().kernels_launched() - base.kernels;
    s.device_peak_bytes = dev.peak_bytes();
    for (const auto& [label, ls] : dev.ledger().breakdown_since(base)) {
      s.kernel_breakdown.push_back({label, ls.seconds, ls.launches});
    }

    // Members run concurrently: the pool finishes with its slowest member.
    total.index_seconds = std::max(total.index_seconds, s.index_seconds);
    total.match_seconds = std::max(total.match_seconds, s.match_seconds);
    total.modeled_makespan_seconds =
        std::max(total.modeled_makespan_seconds, s.modeled_makespan_seconds);
    total.device_peak_bytes =
        std::max(total.device_peak_bytes, s.device_peak_bytes);
    total.tile_rows += s.tile_rows;
    total.inblock_mems += s.inblock_mems;
    total.intile_mems += s.intile_mems;
    total.overflow_rounds += s.overflow_rounds;
    total.kernels_launched += s.kernels_launched;
    for (const RunStats::KernelStat& ks : s.kernel_breakdown) {
      const auto it = std::find_if(
          total.kernel_breakdown.begin(), total.kernel_breakdown.end(),
          [&](const RunStats::KernelStat& t) { return t.label == ks.label; });
      if (it == total.kernel_breakdown.end()) {
        total.kernel_breakdown.push_back(ks);
      } else {
        it->seconds += ks.seconds;
        it->launches += ks.launches;
      }
    }
    all_warm = all_warm && s.index_cache_hit;
  }
  std::stable_sort(
      total.kernel_breakdown.begin(), total.kernel_breakdown.end(),
      [](const RunStats::KernelStat& a, const RunStats::KernelStat& b) {
        return a.seconds > b.seconds;
      });
  total.index_cache_hit = total.tile_rows > 0 && all_warm;
  if (per_device != nullptr) *per_device = std::move(members);

  merge_and_finish(ref, query, min_length != 0 ? min_length : cfg_.min_length,
                   std::move(reported), std::move(outtile_pieces), wall,
                   result);
  return result;
}

Result Engine::run_native(const seq::Sequence& ref,
                          const seq::Sequence& query,
                          const NativeIndex* prebuilt) const {
  const Config::Geometry g = cfg_.validated();
  if (cfg_.observe) obs::Registry::global().set_enabled(true);
  obs::Span run_span("pipeline/run", "pipeline");
  run_span.attr("backend", std::string("native"));
  run_span.attr("ref_bp", std::uint64_t{ref.size()});
  run_span.attr("query_bp", std::uint64_t{query.size()});
  util::Timer wall;
  Result result;
  if (ref.empty() || query.empty()) {
    result.stats.wall_seconds = wall.seconds();
    return result;
  }

  const std::uint32_t n_r = tile_count(ref.size(), g.tile_len);
  const std::uint32_t n_c = tile_count(query.size(), g.tile_len);
  result.stats.tile_rows = n_r;
  result.stats.tile_cols = n_c;
  result.stats.index_cache_hit = prebuilt != nullptr;

  std::vector<mem::Mem> reported;
  std::vector<mem::Mem> outtile_pieces;
  const seq::PackedSeq pref(ref), pquery(query);

  for (std::uint32_t row = 0; row < n_r; ++row) {
    const std::uint32_t r0 = row * g.tile_len;
    const std::uint32_t r1 = static_cast<std::uint32_t>(
        std::min<std::size_t>(ref.size(), r0 + std::size_t{g.tile_len}));

    // Reuse prebuilt row indexes when available (build-once / query-many).
    std::optional<index::KmerIndex> local;
    if (prebuilt == nullptr) {
      obs::Span index_span("index/build-row", "stage");
      index_span.attr("row", std::uint64_t{row});
      util::Timer index_timer;
      local.emplace(ref, r0, r1, cfg_.seed_len, g.step);
      result.stats.index_seconds += index_timer.seconds();
    }
    const index::KmerIndex& idx =
        prebuilt != nullptr ? prebuilt->rows.at(row) : *local;

    obs::Span match_span("match/row", "stage");
    match_span.attr("row", std::uint64_t{row});
    util::Timer match_timer;
    for (std::uint32_t col = 0; col < n_c; ++col) {
      const std::uint32_t c0 = col * g.tile_len;
      const std::uint32_t c1 = static_cast<std::uint32_t>(
          std::min<std::size_t>(query.size(), c0 + std::size_t{g.tile_len}));
      const Rect tile{r0, r1, c0, c1};

      // On the calling thread: a fork-join per tile made the time of one
      // comparison follow the number of idle cores on a shared host.
      result.stats.intile_mems += scan_native_tile(
          idx, query, pref, pquery, tile, g.step, cfg_.min_length, reported,
          outtile_pieces);
    }
    result.stats.match_seconds += match_timer.seconds();
  }

  merge_and_finish(ref, query, cfg_.min_length, std::move(reported),
                   std::move(outtile_pieces), wall, result);
  return result;
}

}  // namespace gm::core

// serve-reads: an in-process net::Server over loopback in front of a
// MemService (one device, warm row cache, cold misses served from a prebuilt
// .gmidx), driven from this process. Requests are 10 kbp reads at the engine
// L: each runs the SIMT device route plus the host stitch.
//
// One run: set up (median of many bring-ups reported), then within the
// budget: an in-process replay of the reads (wall_s) and a closed loop from
// every connection (throughput_qps), alternating in rounds; traced runs
// instead measure the fixed-rate open loop (p50/p99), each layer call on the
// replayed reads (including the same request over the wire, for the net
// overhead), the span recorder's cost on the in-process replay, and the
// bisection for the highest rate that meets the latency limit (sat_qps).
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <thread>

#include "bench.h"
#include "core/pipeline.h"
#include "mem/slamem.h"
#include "net/client.h"
#include "net/loadgen.h"
#include "net/protocol.h"
#include "net/server.h"
#include "seq/synthetic.h"
#include "serve/index_cache.h"
#include "serve/service.h"
#include "simt/device.h"
#include "store/artifact.h"
#include "store/loaded_index.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using gm::mem::Mem;

constexpr std::size_t kReferenceBp = 100000;
// 10 kbp reads, not 1 kbp: a 1 kbp request is the same ~30 kernel launches
// with a tenth of the work, so its time is mostly pool fork-join wake-ups,
// which swing 2x with host load; in alternating runs on one host, 1 kbp
// reads spread 20-27% in wall_s and throughput_qps, 10 kbp reads 8%.
constexpr std::size_t kReadBp = 10000;
constexpr std::size_t kReads = 64;
/// min_length of the long-MEM route's finder, replayed beside the device
/// route on the same reads.
constexpr std::uint32_t kLongMemLength = 100;
constexpr std::uint32_t kFmSample = 32;

/// Fixed offered rate of the open loop: about half of sat_qps on a busy
/// 4-vCPU host (~30 qps), a fifth on a quiet one (~77 qps). sat_qps is bisected (geometrically) between a quarter of
/// the rate and six times it, against a p99 limit.
constexpr double kRateQps = 15.0;
constexpr double kLimitMs = 50.0;

/// Untraced runs alternate replay and closed loop in this many rounds, with
/// two bring-ups after each, so both and the set-up sample the host across
/// the whole run.
constexpr int kRounds = 10;

gm::core::Config engine_config() {
  gm::core::Config cfg;
  cfg.backend = gm::core::Backend::kSimt;
  cfg.min_length = 20;
  cfg.seed_len = 10;
  cfg.threads = 256;
  cfg.tile_blocks = 16;
  return cfg;
}

struct Workload {
  gm::seq::Sequence ref;
  std::vector<gm::seq::Sequence> reads;
  std::vector<std::string> read_text;
  std::vector<std::vector<Mem>> expected;       ///< per read, at the engine L
  std::vector<std::vector<Mem>> expected_long;  ///< per read, len >= kLongMemLength
};

Workload make_workload(std::uint64_t seed, bool inject_mismatch) {
  Workload w;
  // Repeat density as the dataset presets hold it at this length.
  gm::seq::GenomeModel model;
  model.length = kReferenceBp;
  model.families = 16;
  model.copies_per_family = 4;
  model.tandem_loci = 2;
  w.ref = model.generate(seed);
  gm::seq::MutationModel mut;
  mut.snp_rate = 0.01;
  mut.indel_rate = 0.001;
  mut.inversions = mut.translocations = mut.duplications = 0;
  const gm::seq::Sequence donor = mut.apply(w.ref, seed * 2 + 1);
  gm::util::Xoshiro256 rng(seed * 2 + 2);
  for (std::size_t i = 0; i < kReads; ++i) {
    w.reads.push_back(donor.subsequence(rng.bounded(donor.size() - kReadBp + 1), kReadBp));
    w.read_text.push_back(w.reads.back().to_string());
  }

  // Expected replies from the native backend of the same pipeline; the
  // long-MEM route's are the same set filtered to its L (MEM maximality does
  // not depend on L).
  gm::core::Config native = engine_config();
  native.backend = gm::core::Backend::kNative;
  const gm::core::Engine engine(native);
  const gm::core::Engine::NativeIndex index = engine.build_native_index(w.ref);
  for (const auto& read : w.reads) {
    std::vector<Mem> mems = engine.run_native_prebuilt(w.ref, read, index).mems;
    std::vector<Mem> long_mems = mems;
    std::erase_if(long_mems, [](const Mem& m) { return m.len < kLongMemLength; });
    if (inject_mismatch) {
      if (!mems.empty()) mems.pop_back();
      if (!long_mems.empty()) long_mems.pop_back();
    }
    w.expected.push_back(std::move(mems));
    w.expected_long.push_back(std::move(long_mems));
  }
  return w;
}

/// One live serving stack, built in the order a deployment brings it up.
struct Stack {
  std::shared_ptr<const gm::store::LoadedIndex> loaded;
  std::unique_ptr<gm::serve::MemService> service;
  std::unique_ptr<gm::net::Server> server;
  std::map<std::string, double> times;  ///< per set-up step, seconds
  double total_s = 0.0;
  std::size_t artifact_bytes = 0;
  bool warm_ok = false;  ///< the warm-up reply matched its expected MEMs
};

template <typename F>
void timed(Stack& s, const char* name, F&& fn) {
  const Span span(name);
  const auto t0 = Clock::now();
  fn();
  s.times[name] = since(t0);
}

std::unique_ptr<Stack> bring_up(const std::string& artifact_path, const Workload& w) {
  auto s = std::make_unique<Stack>();
  const Span setup("setup");
  const auto t0 = Clock::now();
  std::unique_ptr<gm::store::MappedArtifact> artifact;
  timed(*s, "store.open", [&] {
    artifact = std::make_unique<gm::store::MappedArtifact>(
        gm::store::MappedArtifact::open_file(artifact_path));
  });
  s->artifact_bytes = artifact->file_bytes();
  timed(*s, "store.load", [&] {
    s->loaded = std::make_shared<const gm::store::LoadedIndex>(std::move(*artifact));
  });
  timed(*s, "serve.construct", [&] {
    gm::serve::ServiceConfig scfg;
    scfg.engine = engine_config();
    scfg.devices = 1;
    scfg.cache_enabled = true;
    scfg.artifact = s->loaded;
    scfg.max_batch = 8;
    scfg.queue_capacity = 512;
    s->service = std::make_unique<gm::serve::MemService>(scfg, s->loaded->reference());
  });
  timed(*s, "net.listen", [&] {
    gm::net::ServerConfig ncfg;
    ncfg.port = 0;
    s->server = std::make_unique<gm::net::Server>(ncfg, *s->service);
  });
  // One request warms every cold row (a request touches all tile rows of
  // the reference on the single device).
  timed(*s, "serve.warm", [&] {
    gm::net::Client client(s->server->port(), 30.0);
    gm::net::QueryFrame q;
    q.id = "warm";
    q.query = w.read_text[0];
    gm::net::Reply reply;
    s->warm_ok = client.query(q, reply) && reply.ok() && reply.result.mems == w.expected[0];
  });
  s->total_s = since(t0);
  return s;
}

/// Result of one open-loop pass at a fixed offered rate.
struct LoadRun {
  std::vector<double> latency_s;   ///< from scheduled send time
  std::vector<double> late_s;      ///< actual minus scheduled send time
  std::vector<double> queue_s, service_s;  ///< as the server reported them
  std::uint64_t sent = 0, ok = 0, wrong = 0, refused = 0, warm = 0;
  double last_late_s = 0.0;
};

/// Open-loop Poisson arrivals at `qps` for `seconds`, from `clients.size()`
/// lanes of blocking clients. Request i carries read i % kReads.
LoadRun open_loop(std::vector<gm::net::Client>& clients, const Workload& w,
                  double qps, double seconds, std::uint64_t seed,
                  std::uint64_t id_base) {
  const std::vector<double> schedule = gm::net::poisson_schedule(qps, seconds, seed);
  LoadRun run;
  std::mutex mu;
  std::atomic<std::size_t> next{0};
  const auto base = Clock::now();
  const auto lane_loop = [&](std::size_t lane) {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= schedule.size()) return;
      const auto due = base + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(schedule[i]));
      std::this_thread::sleep_until(due);
      const auto sent_at = Clock::now();
      const std::uint64_t id = id_base + i + 1;
      gm::net::QueryFrame q;
      q.id = std::to_string(id);
      q.query = w.read_text[i % kReads];
      gm::net::Reply reply;
      bool ok = false;
      {
        const Span span("net.request", id);
        ok = clients[lane].query(q, reply);
        if (ok && reply.ok()) {
          // Server-reported split of the round trip; the rest is the wire.
          const double end = Tracer::get().now();
          const double svc = reply.result.service_us * 1e-6;
          const double que = reply.result.queue_us * 1e-6;
          Tracer::get().add("serve.service", end - svc, end, span.index(), id);
          Tracer::get().add("serve.queue", end - svc - que, end - svc, span.index(), id);
        }
      }
      const auto done = Clock::now();
      std::lock_guard lock(mu);
      ++run.sent;
      run.latency_s.push_back(std::chrono::duration<double>(done - due).count());
      run.late_s.push_back(std::chrono::duration<double>(sent_at - due).count());
      if (i + 1 == schedule.size())
        run.last_late_s = std::chrono::duration<double>(sent_at - due).count();
      if (!ok || !reply.ok()) {
        ++run.refused;
      } else if (reply.result.mems != w.expected[i % kReads]) {
        ++run.wrong;
      } else {
        ++run.ok;
        run.warm += reply.result.warm ? 1 : 0;
        run.queue_s.push_back(reply.result.queue_us * 1e-6);
        run.service_s.push_back(reply.result.service_us * 1e-6);
      }
    }
  };
  std::vector<std::thread> lanes;
  for (std::size_t l = 0; l < clients.size(); ++l) lanes.emplace_back(lane_loop, l);
  for (auto& t : lanes) t.join();
  return run;
}

/// Closed loop: every lane sends its next request as soon as its previous
/// reply arrives, for `seconds`. Adds checked replies and elapsed time to
/// `ok` and `elapsed_s`.
void closed_loop(std::vector<gm::net::Client>& clients, const Workload& w,
                 double seconds, std::uint64_t& ok, double& elapsed_s, Report& r) {
  std::atomic<std::uint64_t> sent{0}, bad{0};
  const auto t0 = Clock::now();
  const auto lane_loop = [&](std::size_t lane) {
    for (std::uint64_t i = lane; since(t0) < seconds; i += clients.size()) {
      gm::net::QueryFrame q;
      q.id = std::to_string(4000000 + i);
      q.query = w.read_text[i % kReads];
      gm::net::Reply reply;
      const bool good = clients[lane].query(q, reply) && reply.ok() &&
                        reply.result.mems == w.expected[i % kReads];
      ++sent;
      if (!good) ++bad;
    }
  };
  std::vector<std::thread> lanes;
  for (std::size_t l = 0; l < clients.size(); ++l) lanes.emplace_back(lane_loop, l);
  for (auto& t : lanes) t.join();
  elapsed_s += since(t0);
  ok += sent - bad;
  r.attempted += sent;
  r.failed += bad;
}

double lateness_ms(const std::vector<double>& late, bool tail) {
  if (late.empty()) return 0.0;
  const std::size_t n = std::max<std::size_t>(1, late.size() / 10);
  const std::vector<double> part = tail ? std::vector<double>(late.end() - n, late.end())
                                        : std::vector<double>(late.begin(), late.begin() + n);
  return median(part) * 1e3;
}

/// The layer objects the traced replay calls directly, beside the service: a
/// bench-owned device whose row cache is backed by the same artifact, and a
/// lazy finder that adopts the artifact's FM section. Pinned in place: the
/// cache holds the device's address.
struct Layers {
  Layers(const gm::core::Config& cfg, std::shared_ptr<const gm::store::LoadedIndex> loaded)
      : device(cfg.device, 0), cache(device, cfg, /*ref_id=*/1), engine(cfg) {
    cache.back_with_artifact(std::move(loaded));
  }
  Layers(const Layers&) = delete;
  Layers& operator=(const Layers&) = delete;

  gm::simt::Device device;
  gm::serve::DeviceRowIndexCache cache;
  gm::mem::SlaMemFinder lazy{/*force_lazy=*/true};
  gm::core::Engine engine;
};

/// Fixed-rate open loop for the per-layer latency split: p50/p99 from each
/// request's scheduled send time, the server-reported queue and service
/// times, and the service and wire counters over the phase.
void measure_layers(std::vector<gm::net::Client>& clients, const Workload& w,
                    gm::serve::MemService& service, gm::net::Server& server,
                    std::uint64_t seed, double seconds, Report& r) {
  const gm::serve::ServiceStats svc0 = service.stats();
  const gm::net::NetStats net0 = server.stats();
  const std::size_t depth_start = service.queue_depth();
  const LoadRun fixed = open_loop(clients, w, kRateQps, seconds, seed, 0);
  const std::size_t depth_end = service.queue_depth();
  const gm::serve::ServiceStats svc1 = service.stats();
  const gm::net::NetStats net1 = server.stats();
  r.attempted += fixed.sent;
  r.failed += fixed.wrong + fixed.refused;
  const double n_ok = static_cast<double>(std::max<std::uint64_t>(1, fixed.ok));
  r.set("p50_ms", quantile(fixed.latency_s, 0.5) * 1e3, "ms");
  r.set("p99_ms", quantile(fixed.latency_s, 0.99) * 1e3, "ms");
  r.set("samples", static_cast<double>(fixed.latency_s.size()), "count");
  r.set("loadgen.late_ms", quantile(fixed.late_s, 0.99) * 1e3, "ms");
  r.set("serve.queue_ms.p50", quantile(fixed.queue_s, 0.5) * 1e3, "ms");
  r.set("serve.queue_ms.p99", quantile(fixed.queue_s, 0.99) * 1e3, "ms");
  r.set("serve.service_ms.p50", quantile(fixed.service_s, 0.5) * 1e3, "ms");
  r.set("serve.service_ms.p99", quantile(fixed.service_s, 0.99) * 1e3, "ms");
  r.set("serve.batch_mean",
        static_cast<double>(svc1.completed - svc0.completed) /
            static_cast<double>(std::max<std::uint64_t>(1, svc1.batches - svc0.batches)),
        "count");
  r.set("serve.max_queue_depth", static_cast<double>(svc1.max_queue_depth), "count");
  r.set("serve.cache_hit_ratio", static_cast<double>(fixed.warm) / n_ok, "ratio");
  r.set("serve.rejected", static_cast<double>(svc1.rejected - svc0.rejected), "count");
  r.set("serve.expired", static_cast<double>(svc1.expired - svc0.expired), "count");
  r.set("serve.failed", static_cast<double>(svc1.failed - svc0.failed), "count");
  r.set("net.overloaded", static_cast<double>(net1.overloaded - net0.overloaded), "count");
  r.set("net.bytes_in_per_req", static_cast<double>(net1.bytes_in - net0.bytes_in) / n_ok, "B");
  r.set("net.bytes_out_per_req", static_cast<double>(net1.bytes_out - net0.bytes_out) / n_ok, "B");
  std::cout << "# fixed rate: " << fixed.sent << " sent, " << fixed.ok << " ok, queue depth "
            << depth_start << " -> " << depth_end << ", generator late (median ms) "
            << lateness_ms(fixed.late_s, false) << " at start -> "
            << lateness_ms(fixed.late_s, true) << " at end\n";
  r.guard(fixed.warm == fixed.ok, "serve.cache_hit_ratio is 1.0 after warm-up");
}

/// sat_qps: bisection on the offered rate. A rate passes when every reply
/// is right, p99 meets the limit, and the generator is not falling behind
/// at the end (no growing backlog).
double bisect_sat(std::vector<gm::net::Client>& clients, const Workload& w,
                  std::uint64_t seed, double seconds, Report& r) {
  const bool spans_on = Tracer::get().enabled();
  Tracer::get().enable(false);  // probe points are not part of the table
  double lo = kRateQps / 4, hi = kRateQps * 6;
  const int steps = 6;
  for (int step = 0; step < steps; ++step) {
    const double mid = std::sqrt(lo * hi);
    const LoadRun p = open_loop(clients, w, mid, seconds / steps, seed * 31 + step,
                                3000000 + 100000 * step);
    // Wrong replies fail the run; refusals past saturation only fail the point.
    r.attempted += p.sent;
    r.failed += p.wrong;
    const double p99_ms = quantile(p.latency_s, 0.99) * 1e3;
    const bool pass = p.refused == 0 && p.wrong == 0 && p99_ms <= kLimitMs &&
                      p.last_late_s * 1e3 <= kLimitMs;
    std::cout << "# sat probe " << mid << " qps: p99 " << p99_ms << " ms, refused "
              << p.refused << ", last late " << p.last_late_s * 1e3 << " ms -> "
              << (pass ? "pass" : "fail") << "\n";
    (pass ? lo : hi) = mid;
  }
  Tracer::get().enable(spans_on);
  return lo;
}

}  // namespace

Report run_serve(const Options& opt, double budget_s) {
  const Workload w = make_workload(opt.seed, opt.inject_mismatch);
  const gm::core::Config cfg = engine_config();
  std::cout << "# inputs {\"seed\": " << opt.seed << ", \"ref_bp\": " << w.ref.size()
            << ", \"reads\": " << w.reads.size() << ", \"read_bp\": " << w.reads[0].size()
            << ", \"request_min_length\": " << cfg.min_length
            << ", \"rate_qps\": " << kRateQps << "}\n";

  // The prebuilt artifact is an input, built outside the timed set-up.
  const std::string artifact_path = "serve-" + std::to_string(::getpid()) + ".gmidx";
  {
    gm::store::BuildOptions bopt;
    bopt.fm_sa_sample = kFmSample;
    gm::store::write_artifact_file(artifact_path,
                                   gm::store::build_artifact(w.ref, cfg, bopt));
  }
  struct RemoveFile {
    std::string path;
    ~RemoveFile() { std::remove(path.c_str()); }
  } remove_artifact{artifact_path};

  Report r;
  // --- set-up: three bring-ups before measuring (the last one serves the
  // first round); untraced runs bring up two fresh stacks after every round,
  // so the median samples the host across the whole run, not one burst.
  std::map<std::string, std::vector<double>> step_times;
  std::vector<double> setup_times;
  const auto timed_bring_up = [&] {
    std::unique_ptr<Stack> s = bring_up(artifact_path, w);
    ++r.attempted;
    if (!s->warm_ok) ++r.failed;
    setup_times.push_back(s->total_s);
    for (const auto& [name, t] : s->times) step_times[name].push_back(t);
    return s;
  };
  std::unique_ptr<Stack> stack;
  const auto renew_stack = [&](int times) {
    for (int i = 0; i < times; ++i) {
      stack.reset();
      stack = timed_bring_up();
    }
  };
  renew_stack(3);
  r.set("store.artifact_mb", static_cast<double>(stack->artifact_bytes) / (1 << 20), "MB");

  const std::size_t lanes =
      std::min<std::size_t>(4, std::max(1u, std::thread::hardware_concurrency()));
  std::vector<gm::net::Client> clients;
  std::uint64_t misses_at_start = 0;
  bool no_cold_misses = true;
  const auto connect = [&] {
    clients.clear();
    for (std::size_t l = 0; l < lanes; ++l) clients.emplace_back(stack->server->port(), 30.0);
    misses_at_start = stack->service->stats().cache_misses;
  };
  const auto check_warm = [&] {
    no_cold_misses = no_cold_misses && stack->service->stats().cache_misses == misses_at_start;
  };
  connect();

  // One in-process request for read k through MemService::submit.
  struct Outcome {
    bool ok = false;    ///< kOk with the expected MEMs
    bool warm = false;  ///< served from warm row indexes
  };
  const auto submit = [&](std::size_t k, std::uint64_t id) {
    const Span s("serve.submit", id);
    gm::serve::QueryRequest req;
    req.id = std::to_string(id);
    req.query = w.reads[k];
    const gm::serve::QueryResult res = stack->service->submit(std::move(req)).get();
    Outcome out;
    out.ok = res.status == gm::serve::QueryStatus::kOk && res.mems == w.expected[k];
    out.warm = out.ok && res.stats.index_cache_hit;
    return out;
  };
  std::uint64_t replay_ok = 0, replay_warm = 0;
  std::uint64_t next_id = 1000000;
  const auto count = [&](const Outcome& out) {
    ++r.attempted;
    replay_ok += out.ok ? 1 : 0;
    replay_warm += out.warm ? 1 : 0;
    if (!out.ok) ++r.failed;
  };

  // In-process replay of the reads, one at a time through submit, under
  // root spans named `root`: adds each request's seconds, spans included,
  // to `times`.
  const auto replay = [&](const char* root, double seconds, std::vector<double>& times) {
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < kReads || since(start) < seconds; ++i) {
      const std::uint64_t id = next_id++;
      const auto t0 = Clock::now();
      Outcome got;
      {
        const Span span(root, id);
        got = submit(i % kReads, id);
      }
      times.push_back(since(t0));
      count(got);
    }
  };

  std::uint64_t closed_ok = 0;
  double closed_s = 0.0;
  if (!opt.trace) {
    std::vector<double> submit_s;
    for (int round = 0; round < kRounds; ++round) {
      std::vector<double> round_s;
      replay("replay", 0.045 * budget_s, round_s);
      submit_s.insert(submit_s.end(), round_s.begin(), round_s.end());
      const std::uint64_t ok0 = closed_ok;
      const double s0 = closed_s;
      closed_loop(clients, w, 0.045 * budget_s, closed_ok, closed_s, r);
      check_warm();
      clients.clear();
      renew_stack(2);
      connect();
      std::cout << "# round " << round << ": replay median " << median(round_s) * 1e3
                << " ms, closed loop " << static_cast<double>(closed_ok - ok0) / (closed_s - s0)
                << " qps, set-up " << setup_times.end()[-2] * 1e3 << " / "
                << setup_times.back() * 1e3 << " ms\n";
    }
    r.set("wall_s", median(submit_s), "s");
    r.set("throughput_qps", static_cast<double>(closed_ok) / closed_s, "1/s");
  } else {
    Layers layers(cfg, stack->loaded);
    gm::mem::FinderOptions fopt;
    fopt.min_length = cfg.min_length;
    fopt.lazy_lcp = true;
    const auto t_adopt = Clock::now();
    layers.lazy.adopt_index(stack->loaded->reference(), fopt, stack->loaded->fm_index());
    r.set("index.fm_adopt_s", since(t_adopt), "s");
    layers.engine.run_simt_cached(layers.device, w.ref, w.reads[0], layers.cache);  // warm rows

    measure_layers(clients, w, *stack->service, *stack->server, opt.seed, 0.3 * budget_s, r);

    // Each layer call on the replayed reads. The same request also goes
    // over the wire, back to back with the in-process one: the paired
    // difference is what the net layer adds. The order alternates, as the
    // second call finds caches warm.
    std::vector<double> simt_s, lazy_s, stitch_s, encode_s, decode_s;
    std::vector<double> net_extra_s[2];  ///< wire minus in-process, by call order
    const auto layer_start = Clock::now();
    for (std::uint64_t i = 0; i < kReads || since(layer_start) < 0.15 * budget_s; ++i) {
      const std::size_t k = i % kReads;
      const std::uint64_t id = next_id++;
      const Span span("replay.layers", id);
      Outcome got;
      const auto in_process = [&] {
        const auto t0 = Clock::now();
        got = submit(k, id);
        return since(t0);
      };
      bool ok = true;
      const auto roundtrip = [&] {
        const Span s("net.roundtrip", id);
        gm::net::QueryFrame q;
        q.id = std::to_string(id);
        q.query = w.read_text[k];
        gm::net::Reply reply;
        const auto t0 = Clock::now();
        ok = clients[0].query(q, reply) && reply.ok() && reply.result.mems == w.expected[k];
        return since(t0);
      };
      if (i % 2 == 1) {
        const double rtt = roundtrip();
        net_extra_s[1].push_back(rtt - in_process());
      } else {
        const double in = in_process();
        net_extra_s[0].push_back(roundtrip() - in);
      }
      ok = ok && got.ok;
      {
        const Span s("simt.request", id);
        const auto t0 = Clock::now();
        const gm::core::Result direct =
            layers.engine.run_simt_cached(layers.device, w.ref, w.reads[k], layers.cache);
        simt_s.push_back(since(t0));
        stitch_s.push_back(direct.stats.host_stitch_seconds);
        ok = ok && direct.mems == w.expected[k];
      }
      {
        const Span s("mem.lazy_find", id);
        const auto t0 = Clock::now();
        const std::vector<Mem> mems = layers.lazy.find_at(w.reads[k], kLongMemLength);
        lazy_s.push_back(since(t0));
        ok = ok && mems == w.expected_long[k];
      }
      gm::net::ResultFrame frame;
      frame.id = std::to_string(id);
      frame.warm = true;
      frame.mems = w.expected[k];
      std::vector<std::uint8_t> bytes;
      {
        const Span s("net.encode", id);
        const auto t0 = Clock::now();
        bytes = gm::net::encode_result(frame);
        encode_s.push_back(since(t0));
      }
      {
        const Span s("net.decode", id);
        const auto t0 = Clock::now();
        gm::net::FrameDecoder decoder;
        decoder.feed(bytes.data(), bytes.size());
        gm::net::FrameDecoder::Frame f;
        gm::net::ErrorCode code{};
        std::string err;
        gm::net::ResultFrame parsed;
        ok = ok && decoder.next(f, code, err) == gm::net::FrameDecoder::Status::kFrame &&
             gm::net::parse_result(f.payload, parsed, err);
        decode_s.push_back(since(t0));
        ok = ok && parsed.mems == frame.mems;
      }
      got.ok = ok;
      got.warm = got.warm && ok;
      count(got);
    }
    r.set("simt.request_ms", median(simt_s) * 1e3, "ms");
    r.set("mem.lazy_find_ms", median(lazy_s) * 1e3, "ms");
    r.set("core.stitch_s", median(stitch_s), "s");
    r.set("net.encode_us", median(encode_s) * 1e6, "us");
    r.set("net.decode_us", median(decode_s) * 1e6, "us");
    r.set("net.overhead_ms", (median(net_extra_s[0]) + median(net_extra_s[1])) / 2 * 1e3, "ms");
    std::cout << "# shape: simt.request_ms / p50_ms = "
              << median(simt_s) * 1e3 / r.metrics["p50_ms"].value << " (device route share)\n";

    // The span recorder's own cost: the untraced runs' in-process replay,
    // with spans off and on in alternating chunks on this one stack.
    std::vector<double> plain_s, spanned_s;
    for (int chunk = 0; chunk < 6; ++chunk) {
      const bool on = chunk % 2 == 1;
      Tracer::get().enable(on);
      replay("replay", 0.1 / 6 * budget_s, on ? spanned_s : plain_s);
    }
    Tracer::get().enable(true);
    r.set("wall_s", median(plain_s), "s");
    r.set("obs.trace_overhead", median(spanned_s) / median(plain_s), "ratio");

    closed_loop(clients, w, 0.1 * budget_s, closed_ok, closed_s, r);
    r.set("throughput_qps", static_cast<double>(closed_ok) / closed_s, "1/s");
    r.set("sat_qps", bisect_sat(clients, w, opt.seed, 0.35 * budget_s, r), "1/s");
  }
  r.set("setup_s", median(setup_times), "s");
  r.set("store.open_s", median(step_times["store.open"]), "s");
  r.set("store.load_s", median(step_times["store.load"]), "s");
  r.set("serve.construct_s", median(step_times["serve.construct"]), "s");
  r.set("net.listen_s", median(step_times["net.listen"]), "s");
  r.set("serve.warm_s", median(step_times["serve.warm"]), "s");
  r.guard(replay_warm == replay_ok, "every replayed request ran warm after warm-up");
  check_warm();
  r.guard(no_cold_misses, "no row-index misses after warm-up");
  return r;
}

}  // namespace perfbench

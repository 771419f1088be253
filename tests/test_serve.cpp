// Serve-layer tests: the reference index cache must change only *when* index
// work happens (never the MEM output), and the batch service must reproduce
// independent Engine::run results while enforcing its queue semantics.
#include <gtest/gtest.h>

#include <cmath>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/pipeline.h"
#include "mem/copmem.h"
#include "mem/naive.h"
#include "obs/registry.h"
#include "seq/synthetic.h"
#include "serve/index_cache.h"
#include "serve/service.h"
#include "simt/device.h"
#include "store/artifact.h"
#include "store/loaded_index.h"

namespace gm {
namespace {

using core::Config;
using core::Engine;
using serve::DeviceRowIndexCache;
using serve::MemService;
using serve::QueryRequest;
using serve::QueryStatus;
using serve::ServiceConfig;

Config small_config() {
  Config cfg;
  cfg.min_length = 12;
  cfg.seed_len = 6;
  cfg.threads = 16;
  cfg.tile_blocks = 2;  // tile_len 224 -> several rows on a few-kbp reference
  return cfg;
}

seq::Sequence test_reference(std::size_t length, std::uint64_t seed) {
  return seq::GenomeModel{.length = length}.generate(seed);
}

seq::Sequence derived_query(const seq::Sequence& ref, std::uint64_t seed,
                            double snp_rate = 0.02) {
  seq::MutationModel mut;
  mut.snp_rate = snp_rate;
  mut.indel_rate = 0.003;
  return mut.apply(ref, seed);
}

// --- DeviceRowIndexCache ---------------------------------------------------

TEST(IndexCache, ColdThenWarmIsByteIdentical) {
  const auto ref = test_reference(3000, 51);
  const auto query = derived_query(ref, 52);
  const Config cfg = small_config();
  const Engine engine(cfg);
  const auto fresh = engine.run(ref, query);
  ASSERT_FALSE(fresh.mems.empty());

  simt::Device dev(cfg.device);
  DeviceRowIndexCache cache(dev, cfg, /*ref_id=*/1);

  const auto cold = engine.run_simt_cached(dev, ref, query, cache);
  EXPECT_EQ(cold.mems, fresh.mems);
  EXPECT_FALSE(cold.stats.index_cache_hit);
  EXPECT_GT(cold.stats.index_seconds, 0.0);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), cache.rows_cached());
  EXPECT_GT(cache.rows_cached(), 0u);

  const auto warm = engine.run_simt_cached(dev, ref, query, cache);
  EXPECT_EQ(warm.mems, fresh.mems);
  EXPECT_TRUE(warm.stats.index_cache_hit);
  EXPECT_EQ(warm.stats.index_seconds, 0.0);
  EXPECT_EQ(cache.hits(), cache.rows_cached());
}

TEST(IndexCache, ServesManyDistinctQueries) {
  const auto ref = test_reference(2500, 53);
  const Config cfg = small_config();
  const Engine engine(cfg);
  simt::Device dev(cfg.device);
  DeviceRowIndexCache cache(dev, cfg, 1);

  for (std::uint64_t seed = 60; seed < 63; ++seed) {
    const auto query = derived_query(ref, seed, 0.01 + 0.01 * (seed - 60));
    const auto got = engine.run_simt_cached(dev, ref, query, cache);
    EXPECT_EQ(got.mems, mem::find_mems_naive(ref, query, cfg.min_length))
        << "query seed " << seed;
  }
  EXPECT_EQ(cache.misses(), cache.rows_cached());  // each row built once
  EXPECT_EQ(cache.hits(), 2 * cache.rows_cached());
}

TEST(IndexCache, LedgerBytesBoundedAcrossCachedRuns) {
  const auto ref = test_reference(4000, 54);
  const auto query = derived_query(ref, 55);
  const Config cfg = small_config();
  const Engine engine(cfg);
  simt::Device dev(cfg.device);
  DeviceRowIndexCache cache(dev, cfg, 1);

  (void)engine.run_simt_cached(dev, ref, query, cache);
  const std::size_t resident_after_warmup = dev.bytes_in_use();
  EXPECT_EQ(resident_after_warmup, cache.resident_bytes());
  EXPECT_GT(resident_after_warmup, 0u);

  std::size_t first_peak = 0;
  for (int i = 0; i < 5; ++i) {
    const auto r = engine.run_simt_cached(dev, ref, query, cache);
    // Transient run buffers all freed; only cached indexes stay resident.
    EXPECT_EQ(dev.bytes_in_use(), resident_after_warmup) << "run " << i;
    if (i == 0) first_peak = r.stats.device_peak_bytes;
    EXPECT_EQ(r.stats.device_peak_bytes, first_peak) << "run " << i;
  }
}

TEST(IndexCache, RejectsForeignDevice) {
  const auto ref = test_reference(1500, 56);
  const Config cfg = small_config();
  simt::Device bound(cfg.device), other(cfg.device, 1);
  DeviceRowIndexCache cache(bound, cfg, 1);
  bool hit = false;
  EXPECT_THROW(cache.acquire(other, ref, 0, hit), std::invalid_argument);
}

TEST(IndexCache, GeometryMismatchDetected) {
  const auto ref = test_reference(1500, 57);
  const auto query = derived_query(ref, 58);
  const Config cfg = small_config();
  simt::Device dev(cfg.device);
  DeviceRowIndexCache cache(dev, cfg, 1);

  Config different = cfg;
  different.seed_len = 8;  // different index geometry, same tile shape
  different.min_length = 16;
  const Engine engine(different);
  EXPECT_THROW((void)engine.run_simt_cached(dev, ref, query, cache),
               std::invalid_argument);
}

TEST(IndexCache, KeyReflectsGeometry) {
  const Config cfg = small_config();
  const auto key = serve::make_cache_key(7, cfg);
  EXPECT_EQ(key.ref_id, 7u);
  EXPECT_EQ(key.seed_len, cfg.seed_len);
  EXPECT_EQ(key.step, cfg.validated().step);
  EXPECT_EQ(key.tile_len, cfg.validated().tile_len);
  Config other = cfg;
  other.seed_len = 8;
  other.min_length = 16;
  EXPECT_FALSE(key == serve::make_cache_key(7, other));
}

TEST(IndexCache, ClearReleasesDeviceMemory) {
  const auto ref = test_reference(2000, 59);
  const auto query = derived_query(ref, 60);
  const Config cfg = small_config();
  const Engine engine(cfg);
  simt::Device dev(cfg.device);
  DeviceRowIndexCache cache(dev, cfg, 1);
  (void)engine.run_simt_cached(dev, ref, query, cache);
  ASSERT_GT(dev.bytes_in_use(), 0u);
  cache.clear();
  EXPECT_EQ(dev.bytes_in_use(), 0u);
  EXPECT_EQ(cache.rows_cached(), 0u);
  EXPECT_EQ(cache.resident_bytes(), 0u);
}

// --- MemService ------------------------------------------------------------

TEST(MemServiceTest, BatchedResultsMatchIndependentRuns) {
  const auto ref = test_reference(3000, 61);
  ServiceConfig scfg;
  scfg.engine = small_config();
  scfg.devices = 2;
  scfg.max_batch = 4;
  const Engine engine(scfg.engine);

  std::vector<seq::Sequence> queries;
  for (std::uint64_t seed = 70; seed < 74; ++seed)
    queries.push_back(derived_query(ref, seed));

  MemService service(scfg, ref);
  auto round = [&](bool first_round) {
    std::vector<std::future<serve::QueryResult>> futures;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      std::string id = "q";
      id += std::to_string(i);
      futures.push_back(service.submit({std::move(id), queries[i], 0.0}));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const auto res = futures[i].get();
      ASSERT_EQ(res.status, QueryStatus::kOk) << res.error;
      EXPECT_EQ(res.mems, engine.run(ref, queries[i]).mems) << "query " << i;
      // The dispatcher serializes requests, so only the very first query
      // ever builds; everything after it is served warm.
      const bool expect_warm = !(first_round && i == 0);
      EXPECT_EQ(res.stats.index_cache_hit, expect_warm) << "query " << i;
      if (expect_warm) {
        EXPECT_EQ(res.stats.index_seconds, 0.0);
      }
      EXPECT_GT(res.stats.match_seconds, 0.0);
      EXPECT_GT(res.stats.kernels_launched, 0u);
    }
  };
  round(true);   // builds each device's rows exactly once, on query 0
  round(false);  // fully warm
  const auto st = service.stats();
  EXPECT_EQ(st.completed, 2 * queries.size());
  EXPECT_GT(st.cache_hits, 0u);
  EXPECT_GT(st.cache_resident_bytes, 0u);
}

TEST(MemServiceTest, CacheOffMatchesSingleRuns) {
  const auto ref = test_reference(2500, 62);
  const auto query = derived_query(ref, 63);
  ServiceConfig scfg;
  scfg.engine = small_config();
  scfg.cache_enabled = false;
  const Engine engine(scfg.engine);
  const auto fresh = engine.run(ref, query);

  MemService service(scfg, ref);
  for (int i = 0; i < 2; ++i) {
    auto res = service.submit({"q", query, 0.0}).get();
    ASSERT_EQ(res.status, QueryStatus::kOk) << res.error;
    EXPECT_EQ(res.mems, fresh.mems);
    EXPECT_FALSE(res.stats.index_cache_hit);
    // Same modeled work as a fresh run; delta accounting off a growing
    // ledger total only admits floating-point noise.
    EXPECT_NEAR(res.stats.index_seconds, fresh.stats.index_seconds,
                1e-9 + 1e-6 * fresh.stats.index_seconds);
    EXPECT_EQ(res.stats.kernels_launched, fresh.stats.kernels_launched);
  }
  const auto st = service.stats();
  EXPECT_EQ(st.cache_hits, 0u);
  EXPECT_EQ(st.cache_misses, 0u);
  EXPECT_EQ(st.cache_resident_bytes, 0u);
}

TEST(MemServiceTest, CopmemFastIndexMatchesEngineRuns) {
  // Fast-index mode answers every request from the host-side copMEM finder:
  // identical MEMs to the device pipeline, zero index_seconds, and every
  // result flagged as a warm index.
  const auto ref = test_reference(3000, 68);
  ServiceConfig scfg;
  scfg.engine = small_config();
  scfg.copmem_fast_index = true;
  const Engine engine(scfg.engine);

  MemService service(scfg, ref);
  for (std::uint64_t seed = 80; seed < 83; ++seed) {
    const auto query = derived_query(ref, seed);
    auto res = service.submit({"q" + std::to_string(seed), query, 0.0}).get();
    ASSERT_EQ(res.status, QueryStatus::kOk) << res.error;
    EXPECT_EQ(res.mems, engine.run(ref, query).mems) << "seed " << seed;
    EXPECT_TRUE(res.stats.index_cache_hit);
    EXPECT_EQ(res.stats.index_seconds, 0.0);
  }
}

TEST(MemServiceTest, CopmemFastIndexAdoptsArtifactSection) {
  // With an attached artifact carrying kCopmemIndex, the service adopts the
  // persisted sampled index instead of rebuilding — same MEM output.
  const auto ref = test_reference(2500, 69);
  const auto query = derived_query(ref, 71);
  ServiceConfig scfg;
  scfg.engine = small_config();
  scfg.copmem_fast_index = true;

  store::BuildOptions bopt;
  bopt.copmem_step =
      mem::CopMemFinder::choose_params(scfg.engine.min_length,
                                       scfg.engine.seed_len)
          .k1;
  scfg.artifact = std::make_shared<const store::LoadedIndex>(
      store::MappedArtifact::from_buffer(
          store::build_artifact(ref, scfg.engine, bopt), "<test>"));

  const auto fresh = Engine(scfg.engine).run(ref, query);
  MemService service(scfg, ref);
  auto res = service.submit({"q", query, 0.0}).get();
  ASSERT_EQ(res.status, QueryStatus::kOk) << res.error;
  EXPECT_EQ(res.mems, fresh.mems);
  EXPECT_TRUE(res.stats.index_cache_hit);
}

TEST(MemServiceTest, BackpressureRejectsWhenQueueFull) {
  const auto ref = test_reference(1500, 64);
  const auto query = derived_query(ref, 65);
  ServiceConfig scfg;
  scfg.engine = small_config();
  scfg.queue_capacity = 2;
  scfg.start_paused = true;  // nothing dispatches until resume()

  MemService service(scfg, ref);
  auto f1 = service.submit({"a", query, 0.0});
  auto f2 = service.submit({"b", query, 0.0});
  auto f3 = service.submit({"c", query, 0.0});  // over capacity

  const auto r3 = f3.get();  // resolved immediately, pre-dispatch
  EXPECT_EQ(r3.status, QueryStatus::kRejected);
  EXPECT_NE(r3.error.find("queue full"), std::string::npos) << r3.error;

  service.resume();
  EXPECT_EQ(f1.get().status, QueryStatus::kOk);
  EXPECT_EQ(f2.get().status, QueryStatus::kOk);
  const auto st = service.stats();
  EXPECT_EQ(st.submitted, 3u);
  EXPECT_EQ(st.rejected, 1u);
  EXPECT_EQ(st.completed, 2u);
  EXPECT_EQ(st.max_queue_depth, 2u);
}

TEST(MemServiceTest, DeadlineExpiresWhileQueued) {
  const auto ref = test_reference(1500, 66);
  const auto query = derived_query(ref, 67);
  ServiceConfig scfg;
  scfg.engine = small_config();
  scfg.start_paused = true;

  MemService service(scfg, ref);
  QueryRequest doomed{"doomed", query, 1e-4};
  auto f_doomed = service.submit(std::move(doomed));
  auto f_ok = service.submit({"patient", query, 0.0});  // no deadline
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.resume();

  const auto r_doomed = f_doomed.get();
  EXPECT_EQ(r_doomed.status, QueryStatus::kExpired);
  EXPECT_TRUE(r_doomed.mems.empty());
  EXPECT_EQ(f_ok.get().status, QueryStatus::kOk);
  const auto st = service.stats();
  EXPECT_EQ(st.expired, 1u);
  EXPECT_EQ(st.completed, 1u);
}

TEST(MemServiceTest, DefaultDeadlineApplies) {
  const auto ref = test_reference(1500, 68);
  const auto query = derived_query(ref, 69);
  ServiceConfig scfg;
  scfg.engine = small_config();
  scfg.start_paused = true;
  scfg.default_deadline_seconds = 1e-4;

  MemService service(scfg, ref);
  auto fut = service.submit({"q", query, 0.0});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  service.resume();
  EXPECT_EQ(fut.get().status, QueryStatus::kExpired);
}

TEST(MemServiceTest, ShutdownDrainsQueueAndRejectsNew) {
  const auto ref = test_reference(1500, 70);
  const auto query = derived_query(ref, 71);
  ServiceConfig scfg;
  scfg.engine = small_config();
  scfg.start_paused = true;

  MemService service(scfg, ref);
  auto queued = service.submit({"queued", query, 0.0});
  service.resume();
  service.shutdown();  // must drain the already-queued request

  EXPECT_EQ(queued.get().status, QueryStatus::kOk);
  auto late = service.submit({"late", query, 0.0});
  const auto r = late.get();
  EXPECT_EQ(r.status, QueryStatus::kRejected);
  EXPECT_NE(r.error.find("shut down"), std::string::npos) << r.error;
  service.shutdown();  // idempotent
}

// Submit-time validation: the wire path must not be able to smuggle states
// the offline CLI rejects (ISSUE 9). Invalid requests resolve immediately
// with kInvalid, never occupy a queue slot, and are counted separately from
// admission rejections.
TEST(MemServiceTest, EmptyQueryIsInvalidNeverEnqueued) {
  const auto ref = test_reference(1500, 72);
  ServiceConfig scfg;
  scfg.engine = small_config();
  scfg.start_paused = true;  // an enqueue would be visible in queue_depth
  MemService service(scfg, ref);
  const auto res = service.submit({"empty", seq::Sequence(), 0.0}).get();
  EXPECT_EQ(res.status, QueryStatus::kInvalid);
  EXPECT_NE(res.error.find("empty query"), std::string::npos) << res.error;
  EXPECT_TRUE(res.mems.empty());
  EXPECT_EQ(service.queue_depth(), 0u);
  EXPECT_EQ(service.stats().invalid, 1u);
  EXPECT_EQ(service.stats().rejected, 0u);
}

TEST(MemServiceTest, BadDeadlinesAreInvalidNeverEnqueued) {
  const auto ref = test_reference(1500, 74);
  const auto query = derived_query(ref, 75);
  ServiceConfig scfg;
  scfg.engine = small_config();
  scfg.start_paused = true;
  MemService service(scfg, ref);

  const auto negative = service.submit({"neg", query, -1.0}).get();
  EXPECT_EQ(negative.status, QueryStatus::kInvalid);
  EXPECT_NE(negative.error.find("deadline"), std::string::npos)
      << negative.error;

  const auto nan =
      service.submit({"nan", query, std::nan("")}).get();
  EXPECT_EQ(nan.status, QueryStatus::kInvalid);

  const auto huge =
      service.submit({"inf", query, 1e300}).get();
  EXPECT_EQ(huge.status, QueryStatus::kInvalid);

  EXPECT_EQ(service.queue_depth(), 0u);
  EXPECT_EQ(service.stats().invalid, 3u);

  // Zero stays the documented "use the service default" sentinel.
  auto ok = service.submit({"zero", query, 0.0});
  EXPECT_EQ(service.queue_depth(), 1u);
  service.resume();
  EXPECT_EQ(ok.get().status, QueryStatus::kOk);
}

TEST(MemServiceTest, PerRequestMinLengthRoutesAndFilters) {
  const auto ref = test_reference(3000, 91);
  const auto query = derived_query(ref, 92);
  ServiceConfig scfg;
  scfg.engine = small_config();  // engine min_length 12
  MemService plain(scfg, ref);

  const auto at_engine = plain.submit({"engine-L", query, 0.0, 0}).get();
  ASSERT_EQ(at_engine.status, QueryStatus::kOk);
  ASSERT_FALSE(at_engine.mems.empty());

  // Below the engine's L: invalid, never enqueued (the device pipeline
  // cannot report MEMs shorter than it was built for).
  const auto low = plain.submit({"low", query, 0.0, 6}).get();
  EXPECT_EQ(low.status, QueryStatus::kInvalid);
  EXPECT_NE(low.error.find("min_length"), std::string::npos) << low.error;
  EXPECT_EQ(plain.stats().invalid, 1u);

  // Larger per-request L: exactly the engine-L result filtered by length
  // (MEM maximality is L-independent).
  const auto at20 = plain.submit({"filtered", query, 0.0, 20}).get();
  ASSERT_EQ(at20.status, QueryStatus::kOk);
  std::vector<mem::Mem> expect;
  for (const auto& m : at_engine.mems) {
    if (m.len >= 20) expect.push_back(m);
  }
  EXPECT_EQ(at20.mems, expect);

  // Long-MEM mode: the resident lazy finder answers requests at or above
  // the threshold, bit-identically to the device path.
  ServiceConfig lazy_cfg = scfg;
  lazy_cfg.lazy_lcp = true;
  lazy_cfg.long_mem_threshold = 20;
  MemService lazy(lazy_cfg, ref);
  const auto lazy20 = lazy.submit({"lazy", query, 0.0, 20}).get();
  ASSERT_EQ(lazy20.status, QueryStatus::kOk);
  EXPECT_EQ(lazy20.mems, at20.mems);

  // Below the threshold the device pool still answers, unchanged.
  const auto dev = lazy.submit({"device", query, 0.0, 0}).get();
  ASSERT_EQ(dev.status, QueryStatus::kOk);
  EXPECT_EQ(dev.mems, at_engine.mems);
}

TEST(MemServiceTest, CompletionCallbackFiresOnceWithFinalResult) {
  const auto ref = test_reference(1500, 76);
  const auto query = derived_query(ref, 77);
  ServiceConfig scfg;
  scfg.engine = small_config();
  MemService service(scfg, ref);

  std::mutex mu;
  std::condition_variable cv;
  std::vector<QueryStatus> seen;
  const auto on_done = [&](const serve::QueryResult& r) {
    std::lock_guard lock(mu);
    seen.push_back(r.status);
    cv.notify_all();
  };

  auto fut = service.submit({"cb", query, 0.0}, on_done);
  EXPECT_EQ(fut.get().status, QueryStatus::kOk);
  // Invalid and rejected submits invoke the callback on the submitting
  // thread before the future returns.
  (void)service.submit({"cb-empty", seq::Sequence(), 0.0}, on_done);
  {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return seen.size() == 2; });
    EXPECT_EQ(seen[0], QueryStatus::kOk);
    EXPECT_EQ(seen[1], QueryStatus::kInvalid);
  }
}

TEST(MemServiceTest, InvalidConfigsThrow) {
  const auto ref = test_reference(1000, 73);
  ServiceConfig native;
  native.engine = small_config();
  native.engine.backend = core::Backend::kNative;
  EXPECT_THROW(MemService(native, ref), std::invalid_argument);

  ServiceConfig no_devices;
  no_devices.engine = small_config();
  no_devices.devices = 0;
  EXPECT_THROW(MemService(no_devices, ref), std::invalid_argument);

  ServiceConfig no_queue;
  no_queue.engine = small_config();
  no_queue.queue_capacity = 0;
  EXPECT_THROW(MemService(no_queue, ref), std::invalid_argument);
}

TEST(MemServiceTest, WarmServiceBeatsColdOnModeledTime) {
  // The tentpole claim at test scale: after warm-up, a request's modeled
  // device time drops by exactly the index-build share. Compared on the
  // modeled clock only: match_seconds also holds the measured wall time of
  // the host stitch, which a slow (e.g. sanitizer) build inflates.
  const auto ref = test_reference(4000, 74);
  const auto query = derived_query(ref, 75);
  ServiceConfig scfg;
  scfg.engine = small_config();
  MemService service(scfg, ref);

  const auto cold = service.submit({"cold", query, 0.0}).get();
  const auto warm = service.submit({"warm", query, 0.0}).get();
  ASSERT_EQ(cold.status, QueryStatus::kOk);
  ASSERT_EQ(warm.status, QueryStatus::kOk);
  ASSERT_GT(cold.stats.index_seconds, 0.0);
  EXPECT_EQ(warm.stats.index_seconds, 0.0);
  const double cold_total =
      cold.stats.index_seconds + cold.stats.device_match_seconds();
  const double warm_total =
      warm.stats.index_seconds + warm.stats.device_match_seconds();
  EXPECT_LT(warm_total, cold_total);
}

// --- Host routes -----------------------------------------------------------

/// Runs `body` with tracing on and returns the spans it recorded.
template <typename Fn>
std::vector<obs::SpanEvent> traced(Fn&& body) {
  obs::Registry& reg = obs::Registry::global();
  reg.reset();
  reg.set_enabled(true);
  body();
  reg.set_enabled(false);
  std::vector<obs::SpanEvent> events = reg.trace().events();
  reg.reset();
  return events;
}

std::string string_attr(const obs::SpanEvent& ev, const std::string& key) {
  for (const obs::Attr& a : ev.attrs) {
    if (a.key == key) return std::get<std::string>(a.value);
  }
  return {};
}

/// The `route` attribute of the serve/request span of request `id`.
std::string route_of(const std::vector<obs::SpanEvent>& events,
                     const std::string& id) {
  for (const obs::SpanEvent& ev : events) {
    if (ev.name == "serve/request" && string_attr(ev, "id") == id) {
      return string_attr(ev, "route");
    }
  }
  return "<no serve/request span>";
}

TEST(MemServiceTest, LongMemRouteAdoptsArtifactSection) {
  // With an attached artifact carrying kFmIndex, the lazy long-MEM route
  // adopts the persisted FM index instead of rebuilding it, and answers
  // exactly Engine::run's MEMs filtered at the request's L.
  const auto ref = test_reference(2500, 93);
  const auto query = derived_query(ref, 94);
  ServiceConfig scfg;
  scfg.engine = small_config();
  scfg.lazy_lcp = true;
  store::BuildOptions bopt;
  bopt.fm_sa_sample = 4;
  scfg.artifact = std::make_shared<const store::LoadedIndex>(
      store::MappedArtifact::from_buffer(
          store::build_artifact(ref, scfg.engine, bopt), "<test>"));
  ASSERT_TRUE(scfg.artifact->has(store::SectionId::kFmIndex));

  serve::QueryResult res;
  const auto events = traced([&] {
    MemService service(scfg, ref);
    res = service.submit({"long", query, 0.0, 20}).get();
  });
  ASSERT_EQ(res.status, QueryStatus::kOk) << res.error;
  auto expect = Engine(scfg.engine).run(ref, query).mems;
  std::erase_if(expect, [](const mem::Mem& m) { return m.len < 20; });
  ASSERT_FALSE(expect.empty());
  EXPECT_EQ(res.mems, expect);
  EXPECT_TRUE(res.stats.index_cache_hit);
  EXPECT_EQ(route_of(events, "long"), "slamem-lazy");

  std::size_t resident = 0;
  for (const obs::SpanEvent& ev : events) {
    if (ev.name != "index/resident-finder") continue;
    ++resident;
    EXPECT_EQ(string_attr(ev, "finder"), "slamem-lazy");
    EXPECT_EQ(string_attr(ev, "source"), "fm-index");
  }
  EXPECT_EQ(resident, 1u);
}

TEST(MemServiceTest, HostRoutesTakeRequestsInThresholdOrder) {
  // Both host routes on, long-MEM threshold above the engine's L: requests
  // at or above the threshold go to the lazy finder, the rest to copMEM,
  // and every reply is bit-identical to the device pool's. Only the device
  // route runs the host merge.
  const auto ref = test_reference(3000, 95);
  const auto query = derived_query(ref, 96);
  ServiceConfig device_cfg;
  device_cfg.engine = small_config();  // engine L 12
  ServiceConfig host_cfg = device_cfg;
  host_cfg.copmem_fast_index = true;
  host_cfg.lazy_lcp = true;
  host_cfg.long_mem_threshold = 20;

  const std::vector<std::uint32_t> lengths = {0, 16, 20, 28};
  std::vector<serve::QueryResult> on_device, on_host;
  const auto events = traced([&] {
    MemService device(device_cfg, ref);
    MemService host(host_cfg, ref);
    for (const std::uint32_t L : lengths) {
      const std::string id = "L" + std::to_string(L);
      on_device.push_back(device.submit({"device-" + id, query, 0.0, L}).get());
      on_host.push_back(host.submit({"host-" + id, query, 0.0, L}).get());
    }
  });

  for (std::size_t i = 0; i < lengths.size(); ++i) {
    const std::string id = "L" + std::to_string(lengths[i]);
    ASSERT_EQ(on_device[i].status, QueryStatus::kOk) << on_device[i].error;
    ASSERT_EQ(on_host[i].status, QueryStatus::kOk) << on_host[i].error;
    EXPECT_FALSE(on_device[i].mems.empty()) << id;
    EXPECT_EQ(on_host[i].mems, on_device[i].mems) << id;
    EXPECT_EQ(route_of(events, "device-" + id), "device");
    EXPECT_EQ(route_of(events, "host-" + id),
              lengths[i] >= 20 ? "slamem-lazy" : "copmem");

    std::size_t device_stitches = 0, host_stitches = 0;
    for (const obs::SpanEvent& ev : events) {
      if (ev.name != "stitch/host-merge") continue;
      device_stitches += ev.trace_id == on_device[i].trace_id;
      host_stitches += ev.trace_id == on_host[i].trace_id;
    }
    EXPECT_EQ(device_stitches, 1u) << id;
    EXPECT_EQ(host_stitches, 0u) << id;
  }
}

}  // namespace
}  // namespace gm

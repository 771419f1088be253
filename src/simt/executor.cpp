#include "simt/executor.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <future>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "obs/registry.h"
#include "util/bits.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace gm::simt {
namespace detail {

BlockWorkspace& block_workspace() {
  // Construct the arena first: at thread exit, thread_locals are destroyed
  // in reverse construction order, so the workspace (whose task destructors
  // release frames into the arena) must go before the arena does.
  FrameArena::local();
  thread_local BlockWorkspace ws;
  return ws;
}

void check_block_dim(const DeviceSpec& spec, std::uint32_t block_dim) {
  if (block_dim == 0 || block_dim > spec.max_threads_per_block) {
    throw std::invalid_argument("run_block: invalid block dimension " +
                                std::to_string(block_dim));
  }
}

void throw_divergent_collective() {
  throw std::logic_error(
      "run_block: divergent collective (threads suspended on different "
      "barrier kinds)");
}

void finish_phase(const DeviceSpec& spec, std::vector<ThreadSlot>& slots,
                  PhaseOp op, BlockResult& result) {
  const CycleBreakdown terms = charge_phase(spec, slots, result.work);
  result.cycles += terms.total();
  result.cycle_terms += terms;
  ++result.phases;

  if (op == PhaseOp::kScan) {
    std::uint64_t running = 0;
    for (ThreadSlot& s : slots) {
      if (s.done) continue;
      s.scan_result.exclusive = running;
      running += s.operand;
    }
    for (ThreadSlot& s : slots) {
      if (!s.done) s.scan_result.total = running;
    }
    // A block scan costs ~2 log2(block) lock-step steps on real hardware;
    // charge it as extra cycles beyond the barrier already counted.
    const double scan_cycles =
        2.0 *
        static_cast<double>(
            util::ceil_log2(static_cast<std::uint32_t>(slots.size()))) *
        spec.cycles_per_shared;
    result.cycles += scan_cycles;
    result.cycle_terms.shared += scan_cycles;
  }
}

GridRun run_grid(std::uint32_t grid,
                 const std::function<void(std::uint32_t)>& run_one) {
  GridRun run;
  if (grid == 0) return run;
  util::ThreadPool& pool = util::ThreadPool::global();
  run.workers = static_cast<std::uint32_t>(
      std::min<std::size_t>(pool.size(), grid));

  std::atomic<std::uint32_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex mu;
  std::exception_ptr first_error;   // guarded by mu
  double longest = 0.0;             // guarded by mu
  const auto claim_blocks = [&] {
    double my_longest = 0.0;
    while (!failed.load(std::memory_order_relaxed)) {
      const std::uint32_t b = next.fetch_add(1, std::memory_order_relaxed);
      if (b >= grid) break;
      try {
        const util::Timer timer;
        run_one(b);
        my_longest = std::max(my_longest, timer.seconds());
      } catch (...) {
        std::lock_guard lock(mu);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
    std::lock_guard lock(mu);
    longest = std::max(longest, my_longest);
  };

  // The calling thread is one of the workers; the pool supplies the rest.
  std::vector<std::future<void>> helpers;
  helpers.reserve(run.workers - 1);
  try {
    for (std::uint32_t w = 1; w < run.workers; ++w) {
      helpers.push_back(pool.submit(claim_blocks));
    }
  } catch (...) {
    // Could not start every helper: stop the ones that did start and wait
    // for them (they reference this frame) before reporting the failure.
    failed.store(true, std::memory_order_relaxed);
    for (std::future<void>& h : helpers) h.wait();
    throw;
  }
  claim_blocks();
  for (std::future<void>& h : helpers) h.wait();
  for (std::future<void>& h : helpers) h.get();
  if (first_error) std::rethrow_exception(first_error);
  run.longest_block_seconds = longest;
  return run;
}

}  // namespace detail

std::size_t record_launch_span(const Device& dev, const LaunchConfig& cfg,
                               const LaunchStats& stats, double modeled_start) {
  const DeviceSpec& spec = dev.spec();
  const std::uint32_t per_sm =
      cfg.blocks_per_sm == 0 ? spec.max_blocks_per_sm : cfg.blocks_per_sm;
  const std::uint64_t resident = std::uint64_t{spec.sm_count} * per_sm;
  const std::uint64_t waves = util::ceil_div<std::uint64_t>(cfg.grid, resident);
  std::vector<obs::Attr> attrs;
  attrs.reserve(16);
  attrs.push_back({"grid", std::uint64_t{cfg.grid}});
  attrs.push_back({"block", std::uint64_t{cfg.block}});
  attrs.push_back({"waves", waves});
  attrs.push_back({"occupancy",
                   static_cast<double>(cfg.grid) /
                       static_cast<double>(waves * resident)});
  attrs.push_back({"phases", stats.phases});
  attrs.push_back({"work.alu", stats.work.alu});
  attrs.push_back({"work.global_bytes", stats.work.global_bytes});
  attrs.push_back({"work.txns", stats.work.txns});
  attrs.push_back({"work.shared_ops", stats.work.shared_ops});
  attrs.push_back({"work.atomics", stats.work.atomics});
  attrs.push_back({"cycles.compute", stats.cycle_terms.compute});
  attrs.push_back({"cycles.shared", stats.cycle_terms.shared});
  attrs.push_back({"cycles.latency", stats.cycle_terms.latency});
  attrs.push_back({"cycles.atomics", stats.cycle_terms.atomics});
  attrs.push_back({"cycles.barrier", stats.cycle_terms.barrier});
  return obs::record_modeled_span(cfg.label.empty() ? "kernel" : cfg.label,
                                  "kernel", modeled_start,
                                  stats.modeled_seconds, dev.ordinal(),
                                  std::move(attrs));
}

}  // namespace gm::simt

// Kernel launch machinery: runs one coroutine per logical thread, drives
// phases between barriers, executes collectives, charges the cost model,
// and schedules blocks across host worker threads.
//
// Host scheduling: launch() runs a grid on min(pool size, grid) workers,
// the calling thread plus tasks on the global pool, and each worker claims
// the next unrun block index from a shared atomic counter until the grid is
// exhausted. Live blocks often sit together (a short query fills only the
// first blocks of a tile), so a fixed split of the grid would leave most
// workers idle; claiming one block at a time keeps every worker busy until
// the last block starts. Where a block runs never reaches its result:
// results are stored by block index and folded in index order, so
// LaunchStats and modeled time are bit-identical however the blocks were
// placed.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/registry.h"
#include "simt/arena.h"
#include "simt/device.h"
#include "simt/kernel.h"
#include "simt/perf_model.h"

namespace gm::simt {

struct LaunchConfig {
  std::uint32_t grid = 1;    ///< number of blocks
  std::uint32_t block = 256; ///< threads per block (τ)
  std::uint32_t blocks_per_sm = 0;  ///< 0 = device maximum
  std::string label;         ///< for diagnostics
};

struct LaunchStats {
  double modeled_seconds = 0.0;
  std::uint64_t phases = 0;       ///< total barrier phases across blocks
  PhaseCounters work{};           ///< total accounted work
  CycleBreakdown cycle_terms{};   ///< per-term cycles summed over blocks
};

/// Executes the threads of one block to completion. Exposed separately from
/// launch() so tests can drive single blocks deterministically.
struct BlockResult {
  double cycles = 0.0;
  std::uint64_t phases = 0;
  PhaseCounters work{};
  CycleBreakdown cycle_terms{};
};

namespace detail {

/// Per-worker scratch reused across run_block calls: thread slots, contexts
/// (frames hold ThreadCtx&, so these must outlive each block run), and the
/// KernelTask frame handles. Lives next to the worker's FrameArena; the
/// accessor constructs the arena first so thread-exit destruction destroys
/// the workspace (releasing any frames) before the arena.
struct BlockWorkspace {
  std::vector<ThreadSlot> slots;
  std::vector<ThreadCtx> ctxs;
  std::vector<KernelTask> tasks;
};
BlockWorkspace& block_workspace();

void check_block_dim(const DeviceSpec& spec, std::uint32_t block_dim);

/// Throws the std::logic_error for live threads suspended on different
/// barrier kinds (UB on real hardware, a kernel bug here).
[[noreturn]] void throw_divergent_collective();

/// Charges the finished phase to the cost model in one pass over the slots
/// (clearing every slot's counters, so a thread that finished counts only
/// in the phase it finished in), then executes collective `op`, the one
/// every live thread suspended on. The non-templated tail of run_block's
/// phase loop.
void finish_phase(const DeviceSpec& spec, std::vector<ThreadSlot>& slots,
                  PhaseOp op, BlockResult& result);

/// What run_grid observed on the host (wall clock; never modeled time).
struct GridRun {
  std::uint32_t workers = 0;           ///< claiming workers, caller included
  double longest_block_seconds = 0.0;  ///< wall time of the slowest block
};

/// Runs run_one(b) once for every block b in [0, grid) on min(pool size,
/// grid) workers, the calling thread plus pool tasks, each claiming the
/// next block index from a shared counter (a grid of 1 or a 1-thread pool
/// runs inline). The first exception stops further claims, every worker is
/// joined, and that exception is rethrown.
GridRun run_grid(std::uint32_t grid,
                 const std::function<void(std::uint32_t)>& run_one);

}  // namespace detail

/// Runs block `block_id`: one coroutine frame per logical thread, resumed
/// phase-by-phase between barriers. `make_task` is any callable
/// (ThreadCtx&) -> KernelTask — templated so launch() pays no std::function
/// indirection per thread. Frames, slots, and contexts come from the
/// worker's reusable workspace; on any exception (a throwing kernel or a
/// divergent collective) every coroutine frame — including suspended
/// siblings — is destroyed before the exception leaves this function.
template <typename MakeTask>
BlockResult run_block(const DeviceSpec& spec, std::uint32_t block_id,
                      std::uint32_t grid_dim, std::uint32_t block_dim,
                      MakeTask&& make_task) {
  detail::check_block_dim(spec, block_dim);
  detail::BlockWorkspace& ws = detail::block_workspace();
  FrameArena& arena = FrameArena::local();
  const auto cleanup = [&]() noexcept {
    ws.tasks.clear();     // destroy every frame (suspended ones included)
    arena.maybe_reset();  // then rewind their storage in one step
  };

  ws.tasks.clear();
  ws.ctxs.clear();
  ws.slots.assign(block_dim, ThreadSlot{});
  ws.ctxs.reserve(block_dim);
  ws.tasks.reserve(block_dim);
  arena.maybe_reset();

  BlockResult result;
  try {
    for (std::uint32_t t = 0; t < block_dim; ++t) {
      ws.ctxs.emplace_back(t, block_id, block_dim, grid_dim, &ws.slots[t]);
      ws.tasks.push_back(make_task(ws.ctxs.back()));
    }

    std::uint32_t alive = block_dim;
    while (alive > 0) {
      // Run every live thread to its next suspension point, noting the
      // collective it suspended on. Counters were cleared when the previous
      // phase was charged.
      PhaseOp op = PhaseOp::kNone;
      bool divergent = false;
      for (std::uint32_t t = 0; t < block_dim; ++t) {
        ThreadSlot& slot = ws.slots[t];
        if (slot.done) continue;
        slot.pending = PhaseOp::kNone;
        auto handle = ws.tasks[t].handle();
        handle.resume();
        if (handle.done()) {
          slot.done = true;
          --alive;
          if (handle.promise().exception) {
            std::rethrow_exception(handle.promise().exception);
          }
        } else if (op == PhaseOp::kNone) {
          op = slot.pending;
        } else if (slot.pending != op) {
          divergent = true;
        }
      }
      if (divergent) detail::throw_divergent_collective();
      detail::finish_phase(spec, ws.slots, op, result);
    }
  } catch (...) {
    cleanup();
    throw;
  }
  cleanup();
  return result;
}

/// Emits the launch's span on the modeled-device trace track: phase count,
/// work counters, wave/occupancy figures, and the per-term cycle breakdown.
/// Call only when obs::enabled(); `modeled_start` is the ledger total just
/// before the launch's seconds were added. Returns the span's trace index
/// so the stream scheduler can retime it onto an overlapped timeline.
std::size_t record_launch_span(const Device& dev, const LaunchConfig& cfg,
                               const LaunchStats& stats, double modeled_start);

/// Launches `fn(ctx, smem, args...)` over cfg.grid blocks of cfg.block
/// threads. SharedT is default-constructed once per block (the shared
/// memory). `fn` must be a plain function / stateless functor — a capturing
/// lambda coroutine would dangle. Blocks run on the host pool (see the top
/// of this file); with obs on, the launch's host wall time is recorded as a
/// `simt/launch` span next to its modeled kernel span. Returns modeled
/// device time and adds it to the device ledger.
template <typename SharedT, typename Fn, typename... Args>
LaunchStats launch(Device& dev, const LaunchConfig& cfg, Fn&& fn,
                   Args&&... args) {
  std::vector<BlockResult> results(cfg.grid);
  obs::Span wall_span("simt/launch", "simt");
  const detail::GridRun run =
      detail::run_grid(cfg.grid, [&](std::uint32_t b) {
        SharedT smem{};
        results[b] = run_block(dev.spec(), b, cfg.grid, cfg.block,
                               [&](ThreadCtx& ctx) -> KernelTask {
                                 return fn(ctx, smem, args...);
                               });
      });
  if (wall_span.armed()) {
    wall_span.attr("label", cfg.label);
    wall_span.attr("grid", std::uint64_t{cfg.grid});
    wall_span.attr("block", std::uint64_t{cfg.block});
    wall_span.attr("workers", std::uint64_t{run.workers});
    wall_span.attr("longest_block_ms", run.longest_block_seconds * 1e3);
    wall_span.finish();
  }

  LaunchStats stats;
  std::vector<double> block_cycles(cfg.grid, 0.0);
  for (std::uint32_t b = 0; b < cfg.grid; ++b) {
    const BlockResult& r = results[b];
    block_cycles[b] = r.cycles;
    stats.phases += r.phases;
    stats.work += r.work;
    stats.cycle_terms += r.cycle_terms;
  }
  stats.modeled_seconds = launch_seconds(
      dev.spec(), block_cycles, cfg.blocks_per_sm, stats.work.global_bytes);
  const double modeled_start = dev.ledger().total_seconds();
  dev.ledger().add_kernel_seconds(stats.modeled_seconds, cfg.label);
  std::ptrdiff_t span_index = -1;
  if (obs::enabled()) {
    span_index = static_cast<std::ptrdiff_t>(
        record_launch_span(dev, cfg, stats, modeled_start));
  }
  if (dev.segment_sink() != nullptr) {
    const double clock = dev.spec().clock_hz;
    for (double& c : block_cycles) c /= clock;
    dev.note_kernel_launch(
        cfg.label, std::move(block_cycles),
        static_cast<double>(stats.work.global_bytes) / dev.spec().mem_bandwidth,
        stats.modeled_seconds, cfg.blocks_per_sm, span_index);
  }
  return stats;
}

/// Shared-memory tag for kernels that use none.
struct NoShared {};

}  // namespace gm::simt

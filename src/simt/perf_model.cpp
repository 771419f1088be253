#include "simt/perf_model.h"

#include <algorithm>

namespace gm::simt {

namespace {

/// The per-phase formula of perf_model.h in one pass over `slots`, warp by
/// warp: `visit(slot)` runs on each slot right after its counters are read.
template <typename Slot, typename Visit>
CycleBreakdown price_phase(const DeviceSpec& spec, std::span<Slot> slots,
                           Visit&& visit) {
  const std::uint32_t warp = spec.warp_size;
  double compute = 0.0, shared = 0.0;
  std::uint64_t total_atomics = 0;
  double latency = 0.0;
  for (std::size_t w = 0; w < slots.size(); w += warp) {
    std::uint64_t warp_alu = 0, warp_shared = 0, warp_txn = 0;
    const std::size_t end = std::min(slots.size(), w + warp);
    for (std::size_t t = w; t < end; ++t) {
      const PhaseCounters& c = slots[t].phase;
      warp_alu = std::max(warp_alu, c.alu);
      warp_shared = std::max(warp_shared, c.shared_ops);
      warp_txn = std::max(warp_txn, c.txns);
      total_atomics += c.atomics;
      visit(slots[t]);
    }
    compute += static_cast<double>(warp_alu);
    shared += static_cast<double>(warp_shared);
    latency += static_cast<double>(warp_txn);
  }
  const double warp_ipc =
      static_cast<double>(spec.cores_per_sm) / static_cast<double>(warp);
  CycleBreakdown terms;
  terms.compute = compute * spec.cycles_per_alu / warp_ipc;
  terms.shared = shared * spec.cycles_per_shared;
  terms.latency = latency * spec.cycles_per_txn;
  terms.atomics = static_cast<double>(total_atomics) * spec.cycles_per_atomic;
  terms.barrier = spec.cycles_per_barrier;
  return terms;
}

}  // namespace

CycleBreakdown phase_cycle_terms(const DeviceSpec& spec,
                                 std::span<const ThreadSlot> slots) {
  return price_phase(spec, slots, [](const ThreadSlot&) {});
}

CycleBreakdown charge_phase(const DeviceSpec& spec,
                            std::span<ThreadSlot> slots, PhaseCounters& work) {
  return price_phase(spec, slots, [&work](ThreadSlot& s) {
    work += s.phase;
    s.phase = PhaseCounters{};
  });
}

double phase_cycles(const DeviceSpec& spec, std::span<const ThreadSlot> slots) {
  return phase_cycle_terms(spec, slots).total();
}

double launch_seconds(const DeviceSpec& spec,
                      std::span<const double> block_cycles,
                      std::uint32_t blocks_per_sm,
                      std::uint64_t total_global_bytes) {
  if (blocks_per_sm == 0) blocks_per_sm = spec.max_blocks_per_sm;
  double sum = 0.0, mx = 0.0;
  for (double c : block_cycles) {
    sum += c;
    mx = std::max(mx, c);
  }
  const double resident =
      static_cast<double>(spec.sm_count) * static_cast<double>(blocks_per_sm);
  const double cycles = std::max(sum / resident, mx);
  return cycles / spec.clock_hz +
         static_cast<double>(total_global_bytes) / spec.mem_bandwidth +
         spec.kernel_launch_seconds;
}

}  // namespace gm::simt

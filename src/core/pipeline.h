// GPUMEM end-to-end pipeline (paper Fig. 1): tile-row partial indexing,
// per-tile block matching, tile-level stitching, and the final host merge of
// out-tile triplets. Two backends share this orchestration: the simulated
// device (modeled GPU time) and a native host implementation (wall time).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/config.h"
#include "index/kmer_index.h"
#include "mem/mem.h"
#include "seq/sequence.h"
#include "simt/device.h"

namespace gm::core {

struct RunStats {
  /// Index-generation time (paper Table III): modeled device seconds for
  /// the SIMT backend (all Algorithm 1 kernel launches + memsets), measured
  /// wall seconds for the native backend.
  double index_seconds = 0.0;
  /// MEM-extraction time (paper Table IV): everything else, including the
  /// final host merge (the paper's Section III-C2 host stage).
  double match_seconds = 0.0;
  /// Portion of match_seconds spent in the *measured* host out-tile merge.
  /// At paper scale this stage is a negligible fraction; at reduced scale on
  /// this 1-core container it can dominate, so device-side experiments
  /// (Fig. 7, ablations) subtract it. See EXPERIMENTS.md.
  double host_stitch_seconds = 0.0;

  double device_match_seconds() const {
    return match_seconds - host_stitch_seconds;
  }
  /// Host wall-clock for the entire run (simulation cost; not a result).
  double wall_seconds = 0.0;

  /// Modeled device seconds from first to last device operation. Serial
  /// runs: the ledger delta (= every charge, end to end). Stream-overlapped
  /// runs: the StreamScheduler's overlapped makespan — smaller than the
  /// ledger delta by exactly the overlap won (copies and index builds hidden
  /// behind match kernels, concurrent tile kernels backfilling SM slots).
  /// index_seconds/match_seconds stay serial-style sums either way, so
  /// serial vs overlapped runs are directly comparable (overlapped sums can
  /// deviate marginally: output capacities adapt per stream, not globally,
  /// so retry/memset costs land on different tiles).
  double modeled_makespan_seconds = 0.0;

  std::uint64_t mem_count = 0;
  std::uint32_t tile_rows = 0;
  std::uint32_t tile_cols = 0;
  std::uint64_t inblock_mems = 0;    ///< reported at block level
  std::uint64_t intile_mems = 0;     ///< reported at tile level
  std::uint64_t outtile_pieces = 0;  ///< stitched on the host
  std::uint64_t overflow_rounds = 0; ///< rounds processed by host fallback
  std::uint64_t kernels_launched = 0;
  std::size_t device_peak_bytes = 0;
  /// True when every tile-row index this run needed came ready-made — from a
  /// RowIndexSource serving warm entries (SIMT) or a prebuilt NativeIndex —
  /// so no Algorithm 1 / index-build work ran. The serve layer's cache
  /// effectiveness signal.
  bool index_cache_hit = false;

  /// Trace id of the obs::ScopedTrace the run executed under: the owning
  /// request's id when the serve layer ran it, 0 for standalone calls.
  /// Gives per-request phase attribution: the index/match/stitch seconds
  /// above, keyed by request.
  std::uint64_t trace_id = 0;

  /// One kernel label's modeled totals (SIMT backend).
  struct KernelStat {
    std::string label;
    double seconds = 0.0;
    std::uint64_t launches = 0;
  };
  /// Per-label kernel totals, descending by modeled seconds.
  std::vector<KernelStat> kernel_breakdown;
};

/// Mirrors every RunStats field into the global metrics registry under the
/// "run." / "kernel.<label>." names documented in docs/OBSERVABILITY.md.
/// No-op when observability is disabled. Engines call this at the end of a
/// run; front-ends may call it again for derived stats (e.g. the combined
/// multi-device view).
void publish_run_stats(const RunStats& stats);

struct Result {
  std::vector<mem::Mem> mems;  ///< canonical order, no duplicates
  RunStats stats;
};

struct DeviceIndex;  // core/index_kernels.h

/// Supplies ready-to-use per-tile-row (ptrs, locs) indexes to the SIMT
/// pipeline, replacing the per-run Algorithm 1 builds. The index depends
/// only on the reference row and the (seed_len, step, tile_len) geometry, so
/// a source can build each row once and serve it to every subsequent run —
/// the serve layer's DeviceRowIndexCache is the canonical implementation.
class RowIndexSource {
 public:
  virtual ~RowIndexSource() = default;

  /// Returns the index for tile row `row` of `ref`, resident on `dev`.
  /// Implementations build on miss (charging `dev`'s ledger the modeled
  /// build time) and serve later calls for free; `hit` reports which
  /// happened. The returned reference stays valid until the source is
  /// cleared or destroyed.
  virtual DeviceIndex& acquire(simt::Device& dev, const seq::Sequence& ref,
                               std::uint32_t row, bool& hit) = 0;
};

/// One member of a simulated device pool (Engine::run_pool): a fresh or
/// persistent device, the tile rows [row_begin, row_end) it owns, and an
/// optional source of ready-made row indexes (null = Algorithm 1 builds
/// every row per run).
struct PoolMember {
  simt::Device* dev = nullptr;
  RowIndexSource* index_source = nullptr;
  std::uint32_t row_begin = 0;
  std::uint32_t row_end = 0;
};

class Engine {
 public:
  explicit Engine(Config cfg) : cfg_(std::move(cfg)) { (void)cfg_.validated(); }

  const Config& config() const noexcept { return cfg_; }

  /// Extracts all MEMs of length >= cfg.min_length between ref and query.
  Result run(const seq::Sequence& ref, const seq::Sequence& query) const;

  /// Pre-built per-tile-row indexes for the native backend, enabling the
  /// build-once / query-many workflow of the CPU tools (e.g. mapping many
  /// reads against one reference — see examples/read_mapper.cpp).
  struct NativeIndex {
    std::vector<index::KmerIndex> rows;  ///< one per tile row
    double build_seconds = 0.0;
  };

  /// Builds the native row indexes once (wall-timed).
  NativeIndex build_native_index(const seq::Sequence& ref) const;

  /// Fast-index mode (copMEM, mem/copmem.h): double-sampled k-mer index +
  /// word-parallel LCE verification instead of the tiled Algorithm 1 /
  /// SA-class builds. Same MEM output as run() for the same L; cfg.seed_len
  /// is the sampling seed length K. RunStats reports the sampled-index
  /// build as index_seconds and the scan/verify as match_seconds.
  Result run_fast_index(const seq::Sequence& ref,
                        const seq::Sequence& query) const;

  /// run() with the native backend, reusing `prebuilt` (which must have
  /// been produced by build_native_index with this exact config and ref).
  /// RunStats::index_seconds reports 0 — the cost lives in `prebuilt`.
  Result run_native_prebuilt(const seq::Sequence& ref,
                             const seq::Sequence& query,
                             const NativeIndex& prebuilt) const;

  /// run() on the SIMT backend against a caller-owned (usually persistent)
  /// device, taking every tile-row index from `source` instead of building
  /// per run — the serve layer's warm path. RunStats are ledger *deltas*,
  /// so `dev` may carry state from earlier runs; `source` must have been
  /// created for this exact config (geometry is checked per row).
  Result run_simt_cached(simt::Device& dev, const seq::Sequence& ref,
                         const seq::Sequence& query,
                         RowIndexSource& source) const;

  /// Row-contiguous split of `ref`'s tile rows over a `devices`-member pool
  /// (the reference partitioning of the paper's ref. [1]): entry d is member
  /// d's [row_begin, row_end). Trailing members may get empty ranges.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> partition_rows(
      const seq::Sequence& ref, std::uint32_t devices) const;

  /// The SIMT device pool, the one path every SIMT caller takes: each
  /// member runs its tile rows on its device (building the per-row partial
  /// index, or acquiring it from the member's RowIndexSource, then matching
  /// every tile of those rows), and the out-tile pieces of all members meet
  /// in one final host merge — matches crossing member partitions stitch
  /// there exactly like cross-row matches. Members model concurrently
  /// running cards: modeled times are the max over members, counters are
  /// sums. All device stats are ledger deltas, so members may be persistent.
  /// `min_length` (0 = the config's L; otherwise >= it) filters the merged
  /// result exactly, as MEM maximality is L-independent. `per_device`, when
  /// given, receives each member's own stats.
  Result run_pool(const seq::Sequence& ref, const seq::Sequence& query,
                  std::span<const PoolMember> pool,
                  std::uint32_t min_length = 0,
                  std::vector<RunStats>* per_device = nullptr) const;

 private:
  Result run_native(const seq::Sequence& ref, const seq::Sequence& query,
                    const NativeIndex* prebuilt = nullptr) const;

  Config cfg_;
};

}  // namespace gm::core

// Multi-device MEM extraction: partition the tile rows of the 2D search
// space across several (simulated) GPUs, run the GPUMEM pipeline on each,
// and stitch the combined out-tile pieces on the host.
//
// This is the marriage of the paper's two forward-looking threads: its
// future-work note on newer/multiple devices, and its reference [1]
// (Abouelhoda & Seif, "Efficient distributed computation of maximal exact
// matches"), which distributes MEM extraction by reference partitioning
// exactly this way. Cross-partition matches are recovered by the same
// out-tile stitching the single-device pipeline already needs, so
// correctness is unchanged for any device count.
#pragma once

#include <cstdint>
#include <vector>

#include "core/pipeline.h"

namespace gm::core {

struct MultiDeviceResult {
  std::vector<mem::Mem> mems;      ///< canonical order, no duplicates
  RunStats combined;               ///< modeled times = max over devices
                                   ///< (devices run concurrently)
  std::vector<RunStats> per_device;
};

/// Runs `cfg` over `devices` fresh simulated cards: Engine::partition_rows
/// handed to Engine::run_pool. devices == 1 is equivalent to Engine::run
/// with the SIMT backend.
MultiDeviceResult run_multi_device(const Config& cfg, std::uint32_t devices,
                                   const seq::Sequence& ref,
                                   const seq::Sequence& query);

}  // namespace gm::core

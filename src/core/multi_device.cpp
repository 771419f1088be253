#include "core/multi_device.h"

#include <memory>

namespace gm::core {

MultiDeviceResult run_multi_device(const Config& cfg, std::uint32_t devices,
                                   const seq::Sequence& ref,
                                   const seq::Sequence& query) {
  const Engine engine(cfg);
  std::vector<std::unique_ptr<simt::Device>> cards;
  std::vector<PoolMember> pool;
  for (const auto& [row_begin, row_end] : engine.partition_rows(ref, devices)) {
    const auto ordinal = static_cast<std::uint32_t>(cards.size());
    cards.push_back(std::make_unique<simt::Device>(cfg.device, ordinal));
    pool.push_back({cards.back().get(), nullptr, row_begin, row_end});
  }
  MultiDeviceResult result;
  Result run = engine.run_pool(ref, query, pool, 0, &result.per_device);
  result.mems = std::move(run.mems);
  result.combined = std::move(run.stats);
  return result;
}

}  // namespace gm::core

// Host-side twin of GPUMEM's lightweight index (paper Fig. 1, Section III-A):
// every sampled seed's start position, grouped by seed value. Seeds of
// length ℓs are sampled every Δs positions of the indexed reference range.
//
// The GPU backend builds the paper's dense layout on the device via
// Algorithm 1 (src/core/index_kernels.*): `ptrs`, 4^ℓs + 1 bucket offsets,
// and `locs`, the sorted seed positions. That table is almost all empty
// buckets on the host (268 MB per tile row at ℓs = 13 for a few ten
// thousand seeds), so this class keeps `locs` but replaces `ptrs` with a
// layout sized to what it holds:
//   keys_  the distinct seed values present, ascending, then one sentinel
//          (0xffffffff) so a probe may read one past a slot's keys;
//   offs_  one offset into locs_ per key, then locs_.size() (offs_[k] ..
//          offs_[k+1] are the positions of keys_[k]);
//   dir_   a radix directory over the keys' top bits: 2^d + 1 entries with
//          d = min(2ℓs, ⌈log2 keys⌉), dir_[b] = first key whose top d bits
//          are >= b.
// A lookup reads one directory slot pair and searches the (about one) key
// between them. When d reaches 2ℓs (small ℓs, dense sampling) each slot
// holds at most one key and dir_ ∘ offs_ is exactly the dense `ptrs` — one
// layout for every ℓs. dense_ptrs() materialises the paper's table for the
// .gmidx writer and the device cross-checks.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "seq/sequence.h"
#include "util/stats.h"

namespace gm::index {

/// Largest reference (in bases) whose positions fit the uint32_t location
/// arrays every index in this project stores.
inline constexpr std::size_t kMaxIndexableBases = 0xffffffffu;

/// Rejects references whose positions would silently truncate when stored
/// as uint32_t. Throws std::invalid_argument naming the limit; `who`
/// prefixes the message. Callable directly so tests can pin the error
/// without allocating a 4-Gbase sequence.
void check_position_range(std::size_t ref_bases, const char* who);

class KmerIndex {
 public:
  /// Indexes seeds of `ref` whose start position p satisfies
  /// start <= p, p + seed_len <= ref.size(), p < end, and p % step == 0
  /// (the sampling grid is *global*, so tiled construction over adjacent
  /// ranges covers every MEM — see core/pipeline.cc for why this matters).
  KmerIndex(const seq::Sequence& ref, std::size_t start, std::size_t end,
            unsigned seed_len, std::uint32_t step);

  /// Adopts a prebuilt dense (ptrs, locs) pair — the store/ artifact load
  /// path — compacting `ptrs` in one pass. It must be exactly the index the
  /// first constructor builds over the same arguments: 4^seed_len + 1
  /// monotone ptrs ending at locs.size(); every loc inside [start, end),
  /// on the step lattice, with a whole seed inside `ref` whose value is its
  /// bucket; locs ascending within a bucket; one loc per lattice position.
  /// The checksums only prove the bytes are the ones written, so this is
  /// what keeps a well-sealed but wrong artifact from matching nothing.
  /// Throws std::invalid_argument naming the first violation.
  KmerIndex(const seq::Sequence& ref, std::size_t start, std::size_t end,
            unsigned seed_len, std::uint32_t step,
            std::span<const std::uint32_t> ptrs,
            std::vector<std::uint32_t> locs);

  unsigned seed_len() const noexcept { return seed_len_; }
  std::uint32_t step() const noexcept { return step_; }

  /// All indexed locations of the packed seed value, ascending.
  std::span<const std::uint32_t> lookup(std::uint64_t seed) const noexcept {
    const std::size_t b = seed >> dir_shift_;
    std::size_t k = dir_[b];
    const std::size_t end = dir_[b + 1];
    // A slot holds about one key, and most probes miss: step over up to two
    // smaller keys without a branch (keys past the slot, and the sentinel,
    // are never smaller), so mispredictions stay off the common path.
    k += keys_[k] < seed;
    k += keys_[k] < seed;
    while (k < end && keys_[k] < seed) ++k;
    if (k >= end || keys_[k] != seed) return {};
    return {locs_.data() + offs_[k], locs_.data() + offs_[k + 1]};
  }

  std::uint64_t occurrences(std::uint64_t seed) const noexcept {
    return lookup(seed).size();
  }

  /// The paper's dense bucket table: 4^seed_len + 1 prefix sums of the
  /// per-seed counts, so lookup(s) is locs()[ptrs[s], ptrs[s + 1]).
  /// Materialised on each call (4^seed_len words).
  std::vector<std::uint32_t> dense_ptrs() const;
  const std::vector<std::uint32_t>& locs() const noexcept { return locs_; }

  /// Fig. 6: histogram over "number of locations a seed occurs at" for all
  /// seeds present at least once.
  util::Histogram occurrence_histogram() const;

  /// Bytes held by the index arrays.
  std::size_t bytes() const noexcept {
    return (keys_.size() + offs_.size() + dir_.size() + locs_.size()) *
           sizeof(std::uint32_t);
  }

 private:
  /// Closes offs_, appends the keys_ sentinel and fills dir_/dir_shift_
  /// once keys_/offs_ hold every present seed.
  void finish_keys();

  unsigned seed_len_;
  std::uint32_t step_;
  unsigned dir_shift_ = 0;            // 2·seed_len − directory bits
  std::vector<std::uint32_t> keys_;   // distinct seeds ascending + sentinel
  std::vector<std::uint32_t> offs_;   // per key, then locs_.size()
  std::vector<std::uint32_t> dir_;    // 2^(2·seed_len − dir_shift_) + 1
  std::vector<std::uint32_t> locs_;
};

}  // namespace gm::index

#include "index/kmer_index.h"

#include <stdexcept>
#include <string>

#include "util/bits.h"

namespace gm::index {

namespace {

void check_geometry(unsigned seed_len, std::uint32_t step) {
  if (seed_len == 0 || seed_len > 16) {
    throw std::invalid_argument("KmerIndex: seed_len must be in [1, 16]");
  }
  if (step == 0) throw std::invalid_argument("KmerIndex: step must be >= 1");
}

/// The sampled positions of [start, end): first, first + step, ... < limit.
struct Lattice {
  std::size_t first;
  std::size_t limit;

  Lattice(const seq::Sequence& ref, std::size_t start, std::size_t end,
          unsigned seed_len, std::uint32_t step)
      // Align the first sampled position to the global grid.
      : first(util::round_up(start, static_cast<std::size_t>(step))),
        limit(ref.size() < seed_len
                  ? 0
                  : std::min(end, ref.size() - seed_len + 1)) {}

  std::size_t count(std::uint32_t step) const {
    return limit > first ? (limit - first + step - 1) / step : 0;
  }
};

}  // namespace

void check_position_range(std::size_t ref_bases, const char* who) {
  if (ref_bases > kMaxIndexableBases) {
    throw std::invalid_argument(
        std::string(who) + ": reference has " + std::to_string(ref_bases) +
        " bases but index positions are stored as uint32_t — the indexable "
        "limit is 4294967295 bases");
  }
}

KmerIndex::KmerIndex(const seq::Sequence& ref, std::size_t start,
                     std::size_t end, unsigned seed_len, std::uint32_t step)
    : seed_len_(seed_len), step_(step) {
  check_position_range(ref.size(), "KmerIndex");
  check_geometry(seed_len, step);
  const Lattice lat(ref, start, end, seed_len, step);

  // LSD-radix-sort packed (kmer, position) pairs with small cache-resident
  // digit tables, then lay out keys/offs/locs with purely sequential writes.
  // The passes are stable and pairs are gathered in ascending position
  // order, so each bucket stays position-sorted — the invariant Algorithm
  // 1's step 4 establishes with a sort.
  std::vector<std::uint64_t> pairs;
  pairs.reserve(lat.count(step));
  for (std::size_t p = lat.first; p < lat.limit; p += step) {
    pairs.push_back(std::uint64_t{ref.kmer(p, seed_len)} << 32 | p);
  }
  const unsigned key_bits = 2 * seed_len;
  const unsigned lo_bits = key_bits / 2;
  std::vector<std::uint64_t> scratch(pairs.size());
  std::vector<std::uint32_t> digit_count;
  for (unsigned pass = 0; pass < 2; ++pass) {
    const unsigned shift = 32 + (pass == 0 ? 0 : lo_bits);
    const unsigned bits = pass == 0 ? lo_bits : key_bits - lo_bits;
    const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
    digit_count.assign((std::size_t{1} << bits) + 1, 0);
    for (const std::uint64_t pr : pairs) ++digit_count[(pr >> shift & mask) + 1];
    for (std::size_t d = 1; d < digit_count.size(); ++d) {
      digit_count[d] += digit_count[d - 1];
    }
    for (const std::uint64_t pr : pairs) {
      scratch[digit_count[pr >> shift & mask]++] = pr;
    }
    pairs.swap(scratch);
  }
  locs_.resize(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    locs_[i] = static_cast<std::uint32_t>(pairs[i]);
    const auto key = static_cast<std::uint32_t>(pairs[i] >> 32);
    if (i == 0 || key != keys_.back()) {
      keys_.push_back(key);
      offs_.push_back(static_cast<std::uint32_t>(i));
    }
  }
  finish_keys();
}

KmerIndex::KmerIndex(const seq::Sequence& ref, std::size_t start,
                     std::size_t end, unsigned seed_len, std::uint32_t step,
                     std::span<const std::uint32_t> ptrs,
                     std::vector<std::uint32_t> locs)
    : seed_len_(seed_len), step_(step), locs_(std::move(locs)) {
  check_position_range(ref.size(), "KmerIndex");
  check_geometry(seed_len, step);
  const std::size_t buckets = std::size_t{1} << (2 * seed_len);
  if (ptrs.size() != buckets + 1) {
    throw std::invalid_argument(
        "KmerIndex: ptrs has " + std::to_string(ptrs.size()) +
        " entries, want 4^seed_len + 1 = " + std::to_string(buckets + 1));
  }
  if (ptrs.front() != 0 || ptrs.back() != locs_.size()) {
    throw std::invalid_argument(
        "KmerIndex: ptrs must run from 0 to locs.size()");
  }
  const Lattice lat(ref, start, end, seed_len, step);
  if (locs_.size() != lat.count(step)) {
    throw std::invalid_argument(
        "KmerIndex: " + std::to_string(locs_.size()) + " locs for " +
        std::to_string(lat.count(step)) + " sampled positions");
  }
  // One pass over the buckets: keep the non-empty ones, and check each of
  // their locs against the reference.
  for (std::size_t s = 0; s < buckets; ++s) {
    if (ptrs[s + 1] < ptrs[s]) {
      throw std::invalid_argument("KmerIndex: ptrs not monotone at bucket " +
                                  std::to_string(s + 1));
    }
    if (ptrs[s + 1] == ptrs[s]) continue;
    keys_.push_back(static_cast<std::uint32_t>(s));
    offs_.push_back(ptrs[s]);
    for (std::uint32_t i = ptrs[s]; i < ptrs[s + 1]; ++i) {
      const std::uint32_t p = locs_[i];
      const auto bad = [&](const std::string& why) {
        return std::invalid_argument(
            "KmerIndex: loc " + std::to_string(p) + " (index " +
            std::to_string(i) + ", bucket " + std::to_string(s) + ") " + why);
      };
      if (p < lat.first || p >= lat.limit) {
        throw bad("outside the sampled range [" + std::to_string(lat.first) +
                  ", " + std::to_string(lat.limit) + ")");
      }
      if (p % step != 0) throw bad("is off the step lattice");
      if (ref.kmer(p, seed_len) != s) throw bad("holds a different seed");
      if (i > ptrs[s] && p <= locs_[i - 1]) {
        throw bad("does not ascend within its bucket");
      }
    }
  }
  finish_keys();
}

void KmerIndex::finish_keys() {
  const std::size_t n = keys_.size();
  offs_.push_back(static_cast<std::uint32_t>(locs_.size()));
  keys_.push_back(0xffffffffu);
  const unsigned key_bits = 2 * seed_len_;
  const unsigned dir_bits = std::min<unsigned>(key_bits, util::ceil_log2(n));
  dir_shift_ = key_bits - dir_bits;
  dir_.resize((std::size_t{1} << dir_bits) + 1);
  std::size_t b = 0;
  for (std::size_t k = 0; k < n; ++k) {
    for (const std::size_t kb = keys_[k] >> dir_shift_; b <= kb; ++b) {
      dir_[b] = static_cast<std::uint32_t>(k);
    }
  }
  for (; b < dir_.size(); ++b) dir_[b] = static_cast<std::uint32_t>(n);
}

std::vector<std::uint32_t> KmerIndex::dense_ptrs() const {
  std::vector<std::uint32_t> ptrs((std::size_t{1} << (2 * seed_len_)) + 1);
  std::size_t s = 0;
  for (std::size_t k = 0; k + 1 < offs_.size(); ++k) {
    for (; s <= keys_[k]; ++s) ptrs[s] = offs_[k];
  }
  for (; s < ptrs.size(); ++s) ptrs[s] = static_cast<std::uint32_t>(locs_.size());
  return ptrs;
}

util::Histogram KmerIndex::occurrence_histogram() const {
  util::Histogram h;
  for (std::size_t k = 0; k + 1 < offs_.size(); ++k) {
    h.add(offs_[k + 1] - offs_[k]);
  }
  return h;
}

}  // namespace gm::index

// 2-bit packed DNA sequence with word-level longest-common-extension
// primitives. Every index structure and matcher in the project operates on
// this representation (the paper stores sequences the same way, Section IV).
//
// Non-ACGT input (N runs, IUPAC codes) has no fifth symbol in 2-bit space;
// such positions are stored as a placeholder code plus a bit in a validity
// side-mask. The project-wide policy (docs/TESTING.md) is that an invalid
// base matches nothing — not even another invalid base — so it terminates
// matches and never appears inside a MEM. The mask is empty (zero overhead)
// for fully-ACGT sequences.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "seq/alphabet.h"

namespace gm::seq {

/// Position type: sequences are limited to < 2^32 bases, which covers every
/// chromosome-scale input the paper uses.
using Pos = std::uint32_t;

class Sequence {
 public:
  Sequence() = default;

  /// Builds from an ASCII ACGT string; throws std::invalid_argument on any
  /// other character (FASTA-level policies live in fasta.h).
  static Sequence from_string(std::string_view s);

  /// Builds from ASCII accepting any character: non-ACGT positions are
  /// stored as invalid (masked) bases. Case-insensitive like from_string.
  static Sequence from_string_lenient(std::string_view s);

  /// Builds from 2-bit codes (values 0..3); a kInvalidBase entry stores an
  /// invalid (masked) position.
  static Sequence from_codes(const std::vector<std::uint8_t>& codes);

  /// Reassembles a sequence from its packed representation (the store/
  /// artifact load path). `words` are the 2-bit packed words exactly as
  /// packed_words() exposes them; `invalid_mask` the validity side-mask
  /// (may be shorter than the word count, like the lazily-sized member).
  /// Throws std::invalid_argument on any inconsistency — word count vs
  /// size, mask bits beyond size, or a mask popcount that disagrees with
  /// the stored invalid count — so a corrupted artifact is rejected
  /// deterministically instead of producing an ill-formed sequence.
  static Sequence from_packed(std::vector<std::uint64_t> words,
                              std::vector<std::uint64_t> invalid_mask,
                              std::size_t size);

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// 2-bit code of base i (0 <= i < size()).
  std::uint8_t base(std::size_t i) const noexcept {
    return static_cast<std::uint8_t>((words_[i >> 5] >> ((i & 31) * 2)) & 3);
  }

  void push_back(std::uint8_t code);
  /// Appends an invalid (masked) position; it is stored with code 0 so the
  /// packed words stay well-formed for window64/kmer readers.
  void push_back_invalid();
  /// Appends 2-bit codes in bulk, packing whole words at a time; a
  /// kInvalidBase entry appends an invalid (masked) position. Codes must be
  /// 0..3 or kInvalidBase.
  void append_codes(std::span<const std::uint8_t> codes);
  void append(const Sequence& other, std::size_t pos, std::size_t len);
  void reserve(std::size_t bases) { words_.reserve((bases + 31) / 32 + 1); }

  /// True when at least one position is an invalid (non-ACGT) base.
  bool has_invalid() const noexcept { return invalid_count_ != 0; }
  std::uint64_t invalid_count() const noexcept { return invalid_count_; }

  /// True when base i is a real ACGT base (not a masked non-ACGT position).
  bool valid(std::size_t i) const noexcept {
    const std::size_t w = i >> 6;
    return invalid_count_ == 0 || w >= invalid_mask_.size() ||
           (invalid_mask_[w] & (std::uint64_t{1} << (i & 63))) == 0;
  }

  /// First invalid position in [from, to), or `to` when the range is clean.
  std::size_t next_invalid(std::size_t from, std::size_t to) const noexcept;

  /// 64-bit window holding up to 32 bases starting at position i, base i in
  /// the lowest 2 bits. Positions past the end are zero-filled; callers must
  /// bound match lengths by size() themselves.
  std::uint64_t window64(std::size_t i) const noexcept;

  /// Packed k-mer (k <= 32) starting at i, first base in the lowest bits.
  /// Caller guarantees i + k <= size().
  std::uint64_t kmer(std::size_t i, unsigned k) const noexcept {
    std::uint64_t w = window64(i);
    return k >= 32 ? w : (w & ((std::uint64_t{1} << (2 * k)) - 1));
  }

  /// ASCII rendering; invalid (masked) positions print as 'N'.
  std::string to_string() const;
  std::string to_string(std::size_t pos, std::size_t len) const;

  /// Copy of the subsequence [pos, pos+len).
  Sequence subsequence(std::size_t pos, std::size_t len) const;

  /// Reverse complement of the whole sequence.
  Sequence reverse_complement() const;

  /// Unpacked 2-bit codes (for algorithms that want byte access, e.g. SA-IS).
  std::vector<std::uint8_t> codes() const;

  /// The packed 2-bit words, base i in bits [2(i&31), 2(i&31)+2) of word
  /// i>>5 — the exact bytes the store/ artifact serializes. Tail bits past
  /// size() are zero by construction.
  const std::vector<std::uint64_t>& packed_words() const noexcept {
    return words_;
  }
  /// The validity side-mask words (one bit per base, set = invalid). Empty
  /// for fully-ACGT sequences; may cover fewer words than size() needs (it
  /// is sized lazily up to the last invalid base).
  const std::vector<std::uint64_t>& invalid_words() const noexcept {
    return invalid_mask_;
  }

  /// Length of the common prefix of (*this)[i..] and other[j..], capped at
  /// `max_len`. Word-parallel (32 bases per 64-bit XOR) via seq::lce_forward;
  /// the byte-at-a-time reference stays callable through seq::set_lce_mode
  /// (packed.h).
  std::size_t common_prefix(std::size_t i, const Sequence& other,
                            std::size_t j, std::size_t max_len) const noexcept;

  /// Length of the common suffix of (*this)[..i] and other[..j] (inclusive
  /// end positions), capped at `max_len`. Used for leftward MEM expansion.
  /// Word-parallel via seq::lce_backward (backward windows over the same
  /// forward-packed words — no reversed shadow copy).
  std::size_t common_suffix(std::size_t i, const Sequence& other,
                            std::size_t j, std::size_t max_len) const noexcept;

  bool operator==(const Sequence& other) const noexcept;

 private:
  /// Sets the invalid bit of position `pos` (already appended as code 0).
  void mark_invalid(std::size_t pos);

  std::vector<std::uint64_t> words_;
  /// One bit per base (bit set = invalid); empty until the first invalid
  /// base arrives, then sized lazily to cover it.
  std::vector<std::uint64_t> invalid_mask_;
  std::uint64_t invalid_count_ = 0;
  std::size_t size_ = 0;
};

}  // namespace gm::seq

#include "seq/sequence.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "seq/packed.h"

namespace gm::seq {

Sequence Sequence::from_string(std::string_view s) {
  Sequence seq;
  seq.reserve(s.size());
  for (char c : s) {
    const std::uint8_t b = encode_base(c);
    if (b == kInvalidBase) {
      throw std::invalid_argument(
          std::string("Sequence::from_string: invalid base '") + c + "'");
    }
    seq.push_back(b);
  }
  return seq;
}

Sequence Sequence::from_string_lenient(std::string_view s) {
  Sequence seq;
  seq.reserve(s.size());
  for (char c : s) {
    const std::uint8_t b = encode_base(c);
    if (b == kInvalidBase) {
      seq.push_back_invalid();
    } else {
      seq.push_back(b);
    }
  }
  return seq;
}

Sequence Sequence::from_codes(const std::vector<std::uint8_t>& codes) {
  for (const std::uint8_t b : codes) {
    if (b > 3 && b != kInvalidBase) {
      throw std::invalid_argument("Sequence::from_codes: code > 3");
    }
  }
  Sequence seq;
  seq.append_codes(codes);
  return seq;
}

Sequence Sequence::from_packed(std::vector<std::uint64_t> words,
                               std::vector<std::uint64_t> invalid_mask,
                               std::size_t size) {
  if (size > std::numeric_limits<Pos>::max()) {
    throw std::invalid_argument("Sequence::from_packed: size exceeds 2^32 - 1");
  }
  const std::size_t want_words = (size + 31) / 32;
  if (words.size() < want_words) {
    throw std::invalid_argument(
        "Sequence::from_packed: " + std::to_string(words.size()) +
        " packed words cannot hold " + std::to_string(size) + " bases");
  }
  const std::size_t max_mask_words = (size + 63) / 64;
  if (invalid_mask.size() > max_mask_words) {
    throw std::invalid_argument(
        "Sequence::from_packed: validity mask longer than the sequence");
  }
  std::uint64_t invalid = 0;
  for (std::size_t w = 0; w < invalid_mask.size(); ++w) {
    std::uint64_t bits = invalid_mask[w];
    if (w == max_mask_words - 1 && (size & 63) != 0) {
      const std::uint64_t tail = bits >> (size & 63);
      if (tail != 0) {
        throw std::invalid_argument(
            "Sequence::from_packed: validity mask has bits beyond the "
            "sequence end");
      }
    }
    invalid += static_cast<std::uint64_t>(std::popcount(bits));
  }
  Sequence seq;
  seq.words_ = std::move(words);
  seq.invalid_mask_ = std::move(invalid_mask);
  seq.invalid_count_ = invalid;
  seq.size_ = size;
  return seq;
}

void Sequence::push_back(std::uint8_t code) {
  if (size_ > std::numeric_limits<Pos>::max() - 1) {
    throw std::length_error("Sequence: > 2^32 - 1 bases unsupported");
  }
  const std::size_t word = size_ >> 5;
  const unsigned shift = static_cast<unsigned>((size_ & 31) * 2);
  if (word == words_.size()) words_.push_back(0);
  words_[word] |= static_cast<std::uint64_t>(code & 3) << shift;
  ++size_;
}

void Sequence::push_back_invalid() {
  const std::size_t pos = size_;
  push_back(0);
  mark_invalid(pos);
}

void Sequence::mark_invalid(std::size_t pos) {
  const std::size_t word = pos >> 6;
  if (word >= invalid_mask_.size()) invalid_mask_.resize(word + 1, 0);
  invalid_mask_[word] |= std::uint64_t{1} << (pos & 63);
  ++invalid_count_;
}

void Sequence::append_codes(std::span<const std::uint8_t> codes) {
  if (codes.size() > std::numeric_limits<Pos>::max() - size_) {
    throw std::length_error("Sequence: > 2^32 - 1 bases unsupported");
  }
  std::size_t pos = size_;
  words_.resize((pos + codes.size() + 31) / 32, 0);
  const std::uint8_t* c = codes.data();
  const std::uint8_t* const end = c + codes.size();
  // Tail bits past size() are zero, so words are ORed into, never cleared.
  const auto pack_one = [&] {
    std::uint8_t code = *c++;
    if (code == kInvalidBase) {
      mark_invalid(pos);
      code = 0;
    }
    words_[pos >> 5] |= std::uint64_t{code} << ((pos & 31) * 2);
    ++pos;
  };
  while (c != end && (pos & 31) != 0) pack_one();
  // Whole words: 32 codes with no branch per base (valid codes never have
  // bit 2 set, kInvalidBase does); a word holding an invalid base redoes
  // its codes one at a time.
  while (end - c >= 32) {
    std::uint64_t word = 0;
    std::uint8_t any = 0;
    for (unsigned i = 0; i < 32; ++i) {
      word |= std::uint64_t{c[i] & 3u} << (2 * i);
      any |= c[i];
    }
    if ((any & 4) != 0) {
      for (unsigned i = 0; i < 32; ++i) pack_one();
      continue;
    }
    words_[pos >> 5] = word;
    pos += 32;
    c += 32;
  }
  while (c != end) pack_one();
  size_ = pos;
}

void Sequence::append(const Sequence& other, std::size_t pos, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    if (other.valid(pos + i)) {
      push_back(other.base(pos + i));
    } else {
      push_back_invalid();
    }
  }
}

std::size_t Sequence::next_invalid(std::size_t from,
                                   std::size_t to) const noexcept {
  if (invalid_count_ == 0 || from >= to) return to;
  std::size_t i = from;
  while (i < to) {
    const std::size_t w = i >> 6;
    if (w >= invalid_mask_.size()) return to;
    const std::uint64_t bits = invalid_mask_[w] >> (i & 63);
    if (bits == 0) {
      i = (w + 1) << 6;
      continue;
    }
    const std::size_t hit = i + static_cast<std::size_t>(std::countr_zero(bits));
    return hit < to ? hit : to;
  }
  return to;
}

std::uint64_t Sequence::window64(std::size_t i) const noexcept {
  const std::size_t word = i >> 5;
  const unsigned shift = static_cast<unsigned>((i & 31) * 2);
  if (word >= words_.size()) return 0;
  std::uint64_t lo = words_[word] >> shift;
  if (shift != 0 && word + 1 < words_.size()) {
    lo |= words_[word + 1] << (64 - shift);
  }
  return lo;
}

std::string Sequence::to_string() const { return to_string(0, size_); }

std::string Sequence::to_string(std::size_t pos, std::size_t len) const {
  std::string out;
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(valid(pos + i) ? decode_base(base(pos + i)) : 'N');
  }
  return out;
}

Sequence Sequence::subsequence(std::size_t pos, std::size_t len) const {
  Sequence out;
  out.reserve(len);
  out.append(*this, pos, len);
  return out;
}

Sequence Sequence::reverse_complement() const {
  Sequence out;
  out.reserve(size_);
  for (std::size_t i = size_; i-- > 0;) {
    if (valid(i)) {
      out.push_back(complement(base(i)));
    } else {
      out.push_back_invalid();
    }
  }
  return out;
}

std::vector<std::uint8_t> Sequence::codes() const {
  std::vector<std::uint8_t> out(size_);
  for (std::size_t i = 0; i < size_; ++i) out[i] = base(i);
  return out;
}

std::size_t Sequence::common_prefix(std::size_t i, const Sequence& other,
                                    std::size_t j,
                                    std::size_t max_len) const noexcept {
  return lce_forward(*this, i, other, j, max_len);
}

std::size_t Sequence::common_suffix(std::size_t i, const Sequence& other,
                                    std::size_t j,
                                    std::size_t max_len) const noexcept {
  return lce_backward(*this, i, other, j, max_len);
}

bool Sequence::operator==(const Sequence& other) const noexcept {
  if (size_ != other.size_) return false;
  if (invalid_count_ != other.invalid_count_) return false;
  if (invalid_count_ != 0) {
    const std::size_t n =
        std::max(invalid_mask_.size(), other.invalid_mask_.size());
    for (std::size_t w = 0; w < n; ++w) {
      const std::uint64_t a = w < invalid_mask_.size() ? invalid_mask_[w] : 0;
      const std::uint64_t b =
          w < other.invalid_mask_.size() ? other.invalid_mask_[w] : 0;
      if (a != b) return false;
    }
  }
  if (size_ == 0) return true;
  const std::size_t full = size_ / 32;
  for (std::size_t w = 0; w < full; ++w) {
    if (words_[w] != other.words_[w]) return false;
  }
  const unsigned rem = static_cast<unsigned>(size_ & 31);
  if (rem != 0) {
    const std::uint64_t mask = (std::uint64_t{1} << (2 * rem)) - 1;
    if ((words_[full] & mask) != (other.words_[full] & mask)) return false;
  }
  return true;
}

}  // namespace gm::seq

#include "seq/fasta.h"

#include <array>
#include <fstream>
#include <stdexcept>

#include "util/rng.h"

namespace gm::seq {

namespace {

/// Character class of the FASTA reader: a 2-bit code for ACGT (either
/// case), kSpace for the characters std::isspace accepts in the "C" locale
/// (skipped anywhere in a line), kInvalidBase for everything else.
constexpr std::uint8_t kSpace = 0xFE;
constexpr std::array<std::uint8_t, 256> kCharClass = [] {
  std::array<std::uint8_t, 256> t{};
  for (int c = 0; c < 256; ++c) t[c] = encode_base(static_cast<char>(c));
  for (const char c : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    t[static_cast<unsigned char>(c)] = kSpace;
  }
  return t;
}();

}  // namespace

std::vector<FastaRecord> read_fasta(std::istream& in, NonAcgtPolicy policy) {
  // Lines are encoded through the class table into `codes`, which is packed
  // into the current record in bulk: at each header, at the end, and
  // whenever it passes kBatch (bounding the staging memory).
  constexpr std::size_t kBatch = std::size_t{1} << 20;
  std::vector<FastaRecord> records;
  std::string line;
  std::vector<std::uint8_t> codes;
  std::size_t n = 0;  // staged codes
  const auto pack = [&] {
    if (n != 0) records.back().sequence.append_codes({codes.data(), n});
    n = 0;
  };
  util::Xoshiro256 rng(0x5EEDFA57Aull);
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line[0] == '>') {
      pack();
      records.push_back({});
      records.back().name = line.substr(1);
      // Fresh deterministic stream per record so record order is the only
      // input to randomization.
      rng = util::Xoshiro256(0x5EEDFA57Aull + records.size());
      continue;
    }
    if (line[0] == ';') continue;  // legacy FASTA comment
    if (records.empty()) {
      throw std::runtime_error("read_fasta: sequence data before any '>' header");
    }
    FastaRecord& rec = records.back();
    if (codes.size() < n + line.size()) codes.resize(n + line.size());
    for (const char c : line) {
      const std::uint8_t b = kCharClass[static_cast<unsigned char>(c)];
      if (b <= kT) {
        codes[n++] = b;
        continue;
      }
      if (b == kSpace) continue;
      ++rec.non_acgt;
      switch (policy) {
        case NonAcgtPolicy::kMask:
          codes[n++] = kInvalidBase;
          break;
        case NonAcgtPolicy::kReject:
          throw std::runtime_error(
              std::string("read_fasta: non-ACGT character '") + c +
              "' in record " + rec.name);
        case NonAcgtPolicy::kRandomize:
          codes[n++] = static_cast<std::uint8_t>(rng.bounded(4));
          break;
        case NonAcgtPolicy::kSkip:
          break;
      }
    }
    if (n >= kBatch) pack();
  }
  pack();
  return records;
}

std::vector<FastaRecord> read_fasta_file(const std::string& path,
                                         NonAcgtPolicy policy) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_fasta_file: cannot open " + path);
  return read_fasta(in, policy);
}

void write_fasta(std::ostream& out, const std::string& name,
                 const Sequence& seq, std::size_t width) {
  out << '>' << name << '\n';
  for (std::size_t i = 0; i < seq.size(); i += width) {
    const std::size_t len = std::min(width, seq.size() - i);
    out << seq.to_string(i, len) << '\n';
  }
}

void write_fasta_file(const std::string& path, const std::string& name,
                      const Sequence& seq, std::size_t width) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_fasta_file: cannot open " + path);
  write_fasta(out, name, seq, width);
}

}  // namespace gm::seq

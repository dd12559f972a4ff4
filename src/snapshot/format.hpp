#pragma once

// The snapshot container format (DESIGN.md §8).
//
// Layout (all integers little-endian):
//
//   "BCSS"                       magic, 4 bytes
//   u32  format version          (kFormatVersion)
//   u64  config fingerprint      (FNV-1a over the scenario's scalar config;
//                                 restore refuses a mismatched machine)
//   u32  section count
//   per section:
//     u16  name length, name bytes
//     u64  raw (decompressed) size
//     u64  compressed size
//     u32  CRC-32 of the compressed payload
//   concatenated LZSS payloads (src/codec/lzss.hpp), in table order
//
// Sections are independently compressed and checksummed, so corruption is
// reported at section granularity (tools/snapshot_inspect.py shows the same
// table).  Every parse error is a SnapshotError naming the section — a
// truncated, bit-flipped or version-skewed snapshot is rejected loudly,
// never undefined behaviour.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "snapshot/error.hpp"

namespace bcs::snapshot {

inline constexpr char kMagic[4] = {'B', 'C', 'S', 'S'};
/// v2 added the RMA counters: RuntimeStats::rma_ops and rma_batches, and
/// each rank's next_rma_call, all in the "runtime" section.  v3 dropped the
/// rendered trace's byte length from "meta"; the record count stays.
inline constexpr std::uint32_t kFormatVersion = 3;

/// CRC-32 (IEEE 802.3, reflected) over a byte range.
std::uint32_t crc32(const std::uint8_t* data, std::size_t size);

/// Section-table entry, as parsed from (or about to be written to) a blob.
struct SectionInfo {
  std::string name;
  std::uint64_t raw_size = 0;
  std::uint64_t comp_size = 0;
  std::uint32_t crc = 0;
};

class SnapshotWriter {
 public:
  /// Adds one named section (raw bytes; compressed on the spot).
  void addSection(const std::string& name, const std::string& raw);

  /// Assembles the final blob.
  std::vector<std::uint8_t> finish(std::uint64_t fingerprint) const;

 private:
  struct Sec {
    std::string name;
    std::uint64_t raw_size;
    std::vector<std::uint8_t> comp;
  };
  std::vector<Sec> secs_;
};

class SnapshotReader {
 public:
  /// Parses the header and section table; throws SnapshotError("header", …)
  /// on truncation, bad magic or a version this build does not understand.
  explicit SnapshotReader(std::vector<std::uint8_t> blob);

  std::uint64_t fingerprint() const { return fingerprint_; }
  const std::vector<SectionInfo>& sections() const { return sections_; }
  bool hasSection(const std::string& name) const;

  /// Decompressed payload of one section; CRC and size are verified and
  /// failures throw SnapshotError naming the section.
  std::string section(const std::string& name) const;

 private:
  std::vector<std::uint8_t> blob_;
  std::uint64_t fingerprint_ = 0;
  std::vector<SectionInfo> sections_;
  std::vector<std::size_t> payload_at_;  ///< offset of each payload in blob_
};

}  // namespace bcs::snapshot

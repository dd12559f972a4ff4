#include "snapshot/format.hpp"

#include <array>

#include "codec/lzss.hpp"
#include "snapshot/wire.hpp"

namespace bcs::snapshot {

namespace {

std::array<std::uint32_t, 256> makeCrcTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  static const std::array<std::uint32_t, 256> table = makeCrcTable();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c = table[(c ^ data[i]) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void SnapshotWriter::addSection(const std::string& name,
                                const std::string& raw) {
  secs_.push_back(Sec{name, raw.size(), codec::compress(raw)});
}

std::vector<std::uint8_t> SnapshotWriter::finish(
    std::uint64_t fingerprint) const {
  Encoder head;
  head.bytes(kMagic, sizeof(kMagic));
  head.u32(kFormatVersion);
  head.u64(fingerprint);
  head.u32(static_cast<std::uint32_t>(secs_.size()));
  for (const Sec& s : secs_) {
    head.u16(static_cast<std::uint16_t>(s.name.size()));
    head.bytes(s.name.data(), s.name.size());
    head.u64(s.raw_size);
    head.u64(s.comp.size());
    head.u32(crc32(s.comp.data(), s.comp.size()));
  }
  std::vector<std::uint8_t> blob;
  blob.reserve(head.data().size() + 4096);
  for (char c : head.data()) blob.push_back(static_cast<std::uint8_t>(c));
  for (const Sec& s : secs_) {
    blob.insert(blob.end(), s.comp.begin(), s.comp.end());
  }
  return blob;
}

SnapshotReader::SnapshotReader(std::vector<std::uint8_t> blob)
    : blob_(std::move(blob)) {
  Decoder d(std::string_view(reinterpret_cast<const char*>(blob_.data()),
                             blob_.size()),
            "header");
  char magic[4];
  d.bytes(magic, sizeof(magic));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    d.fail("bad magic (not a BCSS snapshot)");
  }
  const std::uint32_t version = d.u32();
  if (version != kFormatVersion) {
    d.fail("unsupported format version " + std::to_string(version) +
           " (this build reads version " + std::to_string(kFormatVersion) +
           ")");
  }
  fingerprint_ = d.u64();
  const std::uint32_t count = d.u32();
  std::uint64_t payload_bytes = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    SectionInfo info;
    const std::uint16_t name_len = d.u16();
    info.name.resize(name_len);
    d.bytes(info.name.data(), name_len);
    info.raw_size = d.u64();
    info.comp_size = d.u64();
    info.crc = d.u32();
    payload_bytes += info.comp_size;
    sections_.push_back(std::move(info));
  }
  // The header decoder tracked how far the table reached; payloads follow
  // in table order.  Recompute the table-end offset by re-walking sizes.
  std::size_t at = 4 + 4 + 8 + 4;
  for (const SectionInfo& info : sections_) {
    at += 2 + info.name.size() + 8 + 8 + 4;
  }
  for (const SectionInfo& info : sections_) {
    payload_at_.push_back(at);
    at += static_cast<std::size_t>(info.comp_size);
  }
  if (at > blob_.size()) {
    throw SnapshotError("header",
                        "truncated file: section table promises " +
                            std::to_string(payload_bytes) +
                            " payload byte(s), file holds " +
                            std::to_string(blob_.size()) + " total");
  }
}

bool SnapshotReader::hasSection(const std::string& name) const {
  for (const SectionInfo& info : sections_) {
    if (info.name == name) return true;
  }
  return false;
}

std::string SnapshotReader::section(const std::string& name) const {
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    const SectionInfo& info = sections_[i];
    if (info.name != name) continue;
    const std::uint8_t* p = blob_.data() + payload_at_[i];
    if (crc32(p, static_cast<std::size_t>(info.comp_size)) != info.crc) {
      throw SnapshotError(name, "CRC mismatch (corrupted payload)");
    }
    std::string raw;
    try {
      raw = codec::decompress({p, static_cast<std::size_t>(info.comp_size)});
    } catch (const std::exception& e) {
      throw SnapshotError(name, std::string("decompression failed: ") +
                                    e.what());
    }
    if (raw.size() != info.raw_size) {
      throw SnapshotError(name, "decompressed size " +
                                    std::to_string(raw.size()) +
                                    " != recorded raw size " +
                                    std::to_string(info.raw_size));
    }
    return raw;
  }
  throw SnapshotError(name, "section missing from snapshot");
}

}  // namespace bcs::snapshot

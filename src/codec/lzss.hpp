#pragma once

// Tiny deterministic LZSS codec shared by the golden-trace corpus and the
// snapshot format (src/snapshot).
//
// Trace dumps are extremely repetitive text (a few hundred distinct line
// shapes), so a 64 KiB sliding window with greedy hash-chain matching gets
// 15-30x on them — enough to keep multi-megabyte reference traces as
// small checked-in files — while staying ~200 lines of dependency-free
// C++ whose output is bit-stable across platforms (a requirement: the
// corpus is diffed byte-for-byte, so the *compressor* must be as
// deterministic as the traces it stores).  Snapshot sections are binary
// rather than text but share the repetitive structure (runs of zeroed
// counters, near-identical per-node records), so the same codec applies.
//
// Format:  "BCSG1" magic, u64 LE raw size, then token groups: one flag
// byte (LSB first; 0 = literal, 1 = match) followed by 8 tokens — a
// literal byte, or a match of (u16 LE backward offset >= 1, u8 length-3)
// covering lengths 3..258.
//
// Match search.  At each position the compressor walks the hash chain of
// the next three bytes, newest candidate first, for at most kMaxProbes
// candidates inside the window, and keeps the first longest match (ties go
// to the nearer candidate).  The output is defined by that naive search;
// three things make it cheap without changing a byte of it:
//  - Quick reject: a candidate can beat the best length so far only if it
//    also matches at that length, so one byte compare at
//    raw[c + best_len] skips most of them.  A skipped candidate still
//    counts as a probe, as it did in the naive loop.
//  - Word compare: match lengths are measured 8 bytes at a time (memcpy
//    loads, XOR, count trailing zero bits), then byte by byte; every load
//    stays inside [c, i + limit).
//  - Window-sized chain ring: the link from a position to the previous one
//    with the same hash is kept as a u16 distance in a ring of
//    min(size, 65536) entries indexed by pos & 0xFFFF, 0 meaning "none
//    within the window".  Only positions below the current one have been
//    inserted, so the slot of a candidate inside the window has not been
//    reused yet, and a link longer than the window ends the walk exactly
//    where the window check would.  The chains are those of a table with
//    one entry per input byte.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace bcs::codec {

constexpr char kMagic[5] = {'B', 'C', 'S', 'G', '1'};
constexpr std::size_t kWindow = 65535;
constexpr std::size_t kMinMatch = 3;
constexpr std::size_t kMaxMatch = 258;
constexpr int kMaxProbes = 64;  ///< hash-chain depth bound

namespace detail {

/// Length of the common prefix of a[0..limit) and b[0..limit).
inline std::size_t matchLength(const std::uint8_t* a, const std::uint8_t* b,
                               std::size_t limit) {
  std::size_t len = 0;
  for (; len + 8 <= limit; len += 8) {
    std::uint64_t x = 0, y = 0;
    std::memcpy(&x, a + len, 8);
    std::memcpy(&y, b + len, 8);
    if (const std::uint64_t diff = x ^ y; diff != 0) {
      const int bits = std::endian::native == std::endian::little
                           ? std::countr_zero(diff)
                           : std::countl_zero(diff);
      return len + static_cast<std::size_t>(bits / 8);
    }
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

}  // namespace detail

inline std::vector<std::uint8_t> compress(const std::string& raw) {
  std::vector<std::uint8_t> out;
  out.reserve(raw.size() / 4 + 16);
  for (char c : kMagic) out.push_back(static_cast<std::uint8_t>(c));
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(raw.size() >> (8 * i)));
  }

  const auto* in = reinterpret_cast<const std::uint8_t*>(raw.data());
  const std::size_t size = raw.size();
  constexpr std::size_t kHashSize = 1u << 15;
  constexpr std::size_t kRingMask = 0xFFFF;
  // An empty chain starts at a position no window reaches.
  constexpr std::int64_t kNone = -static_cast<std::int64_t>(kWindow) - 1;
  std::vector<std::int64_t> head(kHashSize, kNone);
  std::vector<std::uint16_t> link(std::min(size, kRingMask + 1), 0);
  auto hash3 = [in](std::size_t i) {
    std::uint32_t h = 0;
    if constexpr (std::endian::native == std::endian::little) {
      // in[i + 3] is at most the string's terminating null.
      std::memcpy(&h, in + i, 4);
      h &= 0xFFFFFF;
    } else {
      h = in[i] | (in[i + 1] << 8) | (in[i + 2] << 16);
    }
    return (h * 2654435761u) >> 17;  // Knuth multiplicative, 15 bits
  };
  auto insert = [&](std::size_t i) {
    std::int64_t& newest = head[hash3(i)];
    const std::size_t dist = i - static_cast<std::size_t>(newest);
    link[i & kRingMask] =
        dist <= kWindow ? static_cast<std::uint16_t>(dist) : 0;
    newest = static_cast<std::int64_t>(i);
  };

  std::size_t flag_at = 0;
  int flag_bits = 8;  // force a fresh flag byte on the first token
  auto beginToken = [&](bool is_match) {
    if (flag_bits == 8) {
      flag_at = out.size();
      out.push_back(0);
      flag_bits = 0;
    }
    if (is_match) out[flag_at] |= static_cast<std::uint8_t>(1u << flag_bits);
    ++flag_bits;
  };

  std::size_t i = 0;
  while (i < size) {
    const bool hashable = i + kMinMatch <= size;
    const std::size_t limit = std::min(kMaxMatch, size - i);
    std::size_t best_len = 0, best_off = 0;
    // An empty chain, or a link past the window, ends the walk.
    std::size_t c = static_cast<std::size_t>(hashable ? head[hash3(i)] : kNone);
    for (int probes = 0; probes < kMaxProbes && i - c <= kWindow; ++probes) {
      if (in[c + best_len] == in[i + best_len]) {
        const std::size_t len = detail::matchLength(in + c, in + i, limit);
        if (len > best_len) {
          best_len = len;
          best_off = i - c;
          if (len == limit) break;
        }
      }
      const std::uint16_t back = link[c & kRingMask];
      if (back == 0) break;
      c -= back;
    }
    if (best_len >= kMinMatch) {
      beginToken(true);
      out.push_back(static_cast<std::uint8_t>(best_off));
      out.push_back(static_cast<std::uint8_t>(best_off >> 8));
      out.push_back(static_cast<std::uint8_t>(best_len - kMinMatch));
      const std::size_t end = std::min(i + best_len, size - kMinMatch + 1);
      for (std::size_t k = i; k < end; ++k) insert(k);
      i += best_len;
    } else {
      beginToken(false);
      out.push_back(in[i]);
      if (hashable) insert(i);
      ++i;
    }
  }
  return out;
}

/// Inverse of compress().  Throws std::runtime_error on a stream that is
/// truncated, has a bad magic, records a raw size its payload cannot
/// encode, or holds a match reaching before the start of the output or
/// past the recorded raw size; nothing is written past the output.
inline std::string decompress(std::span<const std::uint8_t> blob) {
  std::size_t p = 0;
  auto need = [&](std::size_t n) {
    if (n > blob.size() - p) {
      throw std::runtime_error("lzss codec: truncated stream");
    }
  };
  need(sizeof(kMagic) + 8);
  for (char c : kMagic) {
    if (static_cast<char>(blob[p++]) != c) {
      throw std::runtime_error("lzss codec: bad magic");
    }
  }
  std::uint64_t raw_size = 0;
  for (int i = 0; i < 8; ++i) {
    raw_size |= static_cast<std::uint64_t>(blob[p++]) << (8 * i);
  }
  // A payload byte yields at most kMaxMatch / 3 = 86 output bytes (a
  // 3-byte match token of 258), so a larger raw size is a corrupt header;
  // refuse it before allocating.
  if (raw_size > (blob.size() - p) * (kMaxMatch / 3)) {
    throw std::runtime_error("lzss codec: raw size " +
                             std::to_string(raw_size) +
                             " exceeds what the payload can encode");
  }

  std::string out(static_cast<std::size_t>(raw_size), '\0');
  char* const o = out.data();
  const std::size_t n_out = out.size();
  std::size_t n = 0;
  std::uint8_t flags = 0;
  int flag_bits = 8;
  while (n < n_out) {
    if (flag_bits == 8) {
      need(1);
      flags = blob[p++];
      flag_bits = 0;
    }
    const bool is_match = (flags >> flag_bits) & 1;
    ++flag_bits;
    if (is_match) {
      need(3);
      const std::size_t off =
          blob[p] | (static_cast<std::size_t>(blob[p + 1]) << 8);
      const std::size_t len = static_cast<std::size_t>(blob[p + 2]) + kMinMatch;
      p += 3;
      if (off == 0 || off > n) {
        throw std::runtime_error("lzss codec: bad match offset");
      }
      if (len > n_out - n) {
        throw std::runtime_error("lzss codec: match runs past the raw size");
      }
      if (off >= len) {
        std::memcpy(o + n, o + n - off, len);
      } else {
        for (std::size_t k = 0; k < len; ++k) o[n + k] = o[n + k - off];
      }
      n += len;
    } else {
      need(1);
      o[n++] = static_cast<char>(blob[p++]);
    }
  }
  return out;
}

}  // namespace bcs::codec

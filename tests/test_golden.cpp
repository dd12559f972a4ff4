// Golden-trace conformance: replays the corpus scenarios and diffs their
// trace dumps byte-for-byte against the compressed references under
// tests/golden/.  Any engine change that perturbs event schedules fails
// here loudly; if the perturbation is *intended*, regenerate with
// tools/regen_golden.py and review the diff like any other code change.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "codec/lzss.hpp"
#include "golden_scenarios.hpp"
#include "sim/rng.hpp"

namespace {

using namespace bcs;

std::string goldenPath(const std::string& name) {
  return std::string(BCS_GOLDEN_DIR) + "/" + name + ".trace.bcsz";
}

std::vector<std::uint8_t> loadGoldenBlob(const std::string& name) {
  std::ifstream in(goldenPath(name), std::ios::binary);
  if (!in) {
    ADD_FAILURE() << "missing golden file " << goldenPath(name)
                  << " — run tools/regen_golden.py";
    return {};
  }
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

std::string loadGolden(const std::string& name) {
  const std::vector<std::uint8_t> blob = loadGoldenBlob(name);
  return blob.empty() ? std::string{} : codec::decompress(blob);
}

/// Pinpoints the first differing line so a schedule perturbation reads as
/// "event X moved", not as a 2 MB string mismatch.
void expectTraceEq(const std::string& expected, const std::string& actual,
                   const std::string& name) {
  if (expected == actual) {
    SUCCEED();
    return;
  }
  std::istringstream e(expected), a(actual);
  std::string el, al;
  std::size_t line = 1;
  while (true) {
    const bool eg = static_cast<bool>(std::getline(e, el));
    const bool ag = static_cast<bool>(std::getline(a, al));
    if (!eg && !ag) break;
    if (!eg || !ag || el != al) {
      FAIL() << name << ": trace diverges from golden at line " << line
             << "\n  golden: " << (eg ? el : std::string("<end of trace>"))
             << "\n  actual: " << (ag ? al : std::string("<end of trace>"))
             << "\nIf this change is intended, regenerate with "
                "tools/regen_golden.py and review the diff.";
    }
    ++line;
  }
  FAIL() << name << ": traces differ but line scan found no divergence";
}

TEST(GoldenCodec, RoundTripsArbitraryData) {
  std::string data;
  for (int i = 0; i < 10000; ++i) {
    data += "line " + std::to_string(i % 97) + ": the quick brown fox ";
    data += static_cast<char>(i * 131 % 256);
  }
  const auto blob = codec::compress(data);
  EXPECT_LT(blob.size(), data.size() / 4);  // repetitive text compresses
  EXPECT_EQ(codec::decompress(blob), data);

  EXPECT_EQ(codec::decompress(codec::compress(std::string{})), "");
  const std::string one = "x";
  EXPECT_EQ(codec::decompress(codec::compress(one)), one);
}

TEST(GoldenCodec, RejectsCorruptStreams) {
  EXPECT_THROW(codec::decompress({}), std::runtime_error);
  auto blob = codec::compress(std::string(1000, 'a'));
  blob[0] ^= 0xFF;  // bad magic
  EXPECT_THROW(codec::decompress(blob), std::runtime_error);
}

// The naive match search the codec's output is defined by: walk the whole
// hash chain (one int64 link per input byte), compare byte by byte, keep
// the first longest match.  codec::compress must emit exactly these bytes.
std::vector<std::uint8_t> referenceCompress(const std::string& raw) {
  using codec::kMaxMatch;
  using codec::kMaxProbes;
  using codec::kMinMatch;
  using codec::kWindow;
  std::vector<std::uint8_t> out;
  for (char c : codec::kMagic) out.push_back(static_cast<std::uint8_t>(c));
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(raw.size() >> (8 * i)));
  }

  constexpr std::size_t kHashSize = 1u << 15;
  std::vector<std::int64_t> head(kHashSize, -1);
  std::vector<std::int64_t> prev(raw.size(), -1);
  auto hash3 = [&raw](std::size_t i) {
    const std::uint32_t h = static_cast<std::uint8_t>(raw[i]) |
                            (static_cast<std::uint8_t>(raw[i + 1]) << 8) |
                            (static_cast<std::uint8_t>(raw[i + 2]) << 16);
    return (h * 2654435761u) >> 17;
  };
  auto insert = [&](std::size_t i) {
    if (i + kMinMatch > raw.size()) return;
    const std::uint32_t h = hash3(i);
    prev[i] = head[h];
    head[h] = static_cast<std::int64_t>(i);
  };

  std::size_t flag_at = 0;
  int flag_bits = 8;
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
  while (i < raw.size()) {
    std::size_t best_len = 0, best_off = 0;
    if (i + kMinMatch <= raw.size()) {
      std::int64_t cand = head[hash3(i)];
      const std::size_t limit = std::min(kMaxMatch, raw.size() - i);
      for (int probes = 0; cand >= 0 && probes < kMaxProbes;
           cand = prev[static_cast<std::size_t>(cand)], ++probes) {
        const std::size_t c = static_cast<std::size_t>(cand);
        if (i - c > kWindow) break;
        std::size_t len = 0;
        while (len < limit && raw[c + len] == raw[i + len]) ++len;
        if (len > best_len) {
          best_len = len;
          best_off = i - c;
          if (len == limit) break;
        }
      }
    }
    if (best_len >= kMinMatch) {
      beginToken(true);
      out.push_back(static_cast<std::uint8_t>(best_off));
      out.push_back(static_cast<std::uint8_t>(best_off >> 8));
      out.push_back(static_cast<std::uint8_t>(best_len - kMinMatch));
      for (std::size_t k = 0; k < best_len; ++k) insert(i + k);
      i += best_len;
    } else {
      beginToken(false);
      out.push_back(static_cast<std::uint8_t>(raw[i]));
      insert(i);
      ++i;
    }
  }
  return out;
}

/// Seeded inputs of `size` bytes in the shapes the oracle test covers.
std::string uniformBytes(std::size_t size, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::string s(size, '\0');
  for (char& c : s) c = static_cast<char>(rng() & 0xff);
  return s;
}

std::string fourLetters(std::size_t size, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::string s(size, '\0');
  for (char& c : s) c = "ACGT"[rng() & 3];
  return s;
}

/// Runs of one byte, most longer than a match can reach (258).
std::string longRuns(std::size_t size, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::string s;
  while (s.size() < size) {
    const std::size_t run = 200 + rng() % 700;
    s.append(std::min(run, size - s.size()), static_cast<char>(rng() & 0xff));
  }
  return s;
}

/// Fixed 40-byte records whose 4-byte counter field varies.
std::string records(std::size_t size, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::string rec = uniformBytes(40, seed ^ 0x9e37);
  std::string s;
  while (s.size() < size) {
    const std::uint64_t field = rng() % 5000;
    for (int k = 0; k < 4; ++k) {
      rec[12 + k] = static_cast<char>(field >> (8 * k));
    }
    s.append(rec, 0, std::min(rec.size(), size - s.size()));
  }
  return s;
}

TEST(GoldenCodec, CompressMatchesNaiveSearchByteForByte) {
  const std::size_t sizes[] = {0,   1,   2,     3,     4,     7,     8,
                               9,   258, 259,   65535, 65536, 65537, 200000};
  using Gen = std::string (*)(std::size_t, std::uint64_t);
  const std::pair<const char*, Gen> shapes[] = {{"uniform", &uniformBytes},
                                                {"acgt", &fourLetters},
                                                {"runs", &longRuns},
                                                {"records", &records}};
  std::uint64_t seed = 17;
  for (const auto& [shape, gen] : shapes) {
    for (std::size_t size : sizes) {
      const std::string raw = gen(size, ++seed);
      ASSERT_EQ(raw.size(), size);
      const std::vector<std::uint8_t> blob = codec::compress(raw);
      EXPECT_EQ(blob, referenceCompress(raw)) << shape << " size " << size;
      EXPECT_EQ(codec::decompress(blob), raw) << shape << " size " << size;
    }
  }
}

TEST(GoldenCodec, RecompressesCorpusByteForByte) {
  for (const golden::Scenario& sc : golden::kScenarios) {
    const std::vector<std::uint8_t> blob = loadGoldenBlob(sc.name);
    ASSERT_FALSE(blob.empty()) << sc.name;
    EXPECT_EQ(codec::compress(codec::decompress(blob)), blob) << sc.name;
  }
}

/// A hand-built stream: header for `raw_size`, then `tokens` verbatim.
std::vector<std::uint8_t> stream(std::uint64_t raw_size,
                                 std::vector<std::uint8_t> tokens) {
  std::vector<std::uint8_t> blob(std::begin(codec::kMagic),
                                 std::end(codec::kMagic));
  for (int i = 0; i < 8; ++i) {
    blob.push_back(static_cast<std::uint8_t>(raw_size >> (8 * i)));
  }
  blob.insert(blob.end(), tokens.begin(), tokens.end());
  return blob;
}

TEST(GoldenCodec, DecodesOverlappingMatch) {
  // "ab" then a match of 10 at offset 2: each copied byte was written by
  // the same match.
  EXPECT_EQ(codec::decompress(stream(12, {0b100, 'a', 'b', 2, 0, 10 - 3})),
            "abababababab");
}

/// Expects decompress(blob) to throw std::runtime_error naming `why`.
void expectRefused(const std::vector<std::uint8_t>& blob, const char* why) {
  try {
    codec::decompress(blob);
    ADD_FAILURE() << "accepted a stream that should fail with: " << why;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
        << e.what();
  }
}

TEST(GoldenCodec, RefusesMalformedMatches) {
  // A match that would run past the recorded raw size (4 + 10 > 8).
  expectRefused(stream(8, {0b10000, 'a', 'b', 'c', 'd', 4, 0, 10 - 3}),
                "past the raw size");
  // Offset 0, and an offset reaching before the first output byte.
  expectRefused(stream(6, {0b10, 'a', 0, 0, 0}), "bad match offset");
  expectRefused(stream(6, {0b10, 'a', 2, 0, 0}), "bad match offset");
  // Truncated in the middle of a match token.
  expectRefused(stream(6, {0b10, 'a', 1, 0}), "truncated");
  std::vector<std::uint8_t> blob = codec::compress(std::string(1000, 'a'));
  blob.resize(blob.size() - 2);
  expectRefused(blob, "truncated");
}

TEST(GoldenCodec, RefusesRawSizeThePayloadCannotEncode) {
  // Five payload bytes: 'a', then a 258-byte match at offset 1.  At most
  // 86 output bytes per payload byte, so they can encode no more than 430.
  const std::vector<std::uint8_t> tokens = {0b10, 'a', 1, 0, 255};
  EXPECT_EQ(codec::decompress(stream(259, tokens)), std::string(259, 'a'));
  expectRefused(stream(431, tokens), "exceeds what the payload can encode");
  // Refused before allocating: an exabyte-sized output would otherwise
  // throw std::bad_alloc or std::length_error.
  expectRefused(stream(std::uint64_t{1} << 60, tokens),
                "exceeds what the payload can encode");
}

class GoldenTrace : public ::testing::TestWithParam<golden::Scenario> {};

TEST_P(GoldenTrace, MatchesCorpus) {
  const golden::Scenario& sc = GetParam();
  const std::string expected = loadGolden(sc.name);
  ASSERT_FALSE(expected.empty());
  const std::string actual = sc.generate();
  expectTraceEq(expected, actual, sc.name);
}

INSTANTIATE_TEST_SUITE_P(Corpus, GoldenTrace,
                         ::testing::ValuesIn(golden::kScenarios),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

TEST(GoldenTrace, ParSoupSerialReplayMatchesParallelGolden) {
  // The par_soup blob is generated through the parallel driver; the serial
  // drain of the identical workload must reproduce it byte-for-byte, which
  // pins the serial ≡ parallel contract against the checked-in corpus (not
  // just against a same-binary reference run).
  const std::string expected = loadGolden("par_soup");
  ASSERT_FALSE(expected.empty());
  expectTraceEq(expected, golden::traceParSoupImpl(/*parallel=*/false),
                "par_soup (serial replay)");
}

}  // namespace

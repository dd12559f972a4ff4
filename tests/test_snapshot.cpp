// Slice-boundary checkpoint/restore (src/snapshot, DESIGN.md §8).
//
// The contract under test: capture() at a slice boundary is pure
// observation, and restore() into a *fresh process-equivalent stack*
// continues byte-identically — the crash-and-restore drill asserts
//
//   prefix(B, records@capture) + C  ==  A
//
// where A is the uninterrupted run, B the checkpointed run killed mid-
// flight, and C the restored continuation.  Negative paths (truncation,
// corruption, version/fingerprint skew) must fail as structured
// SnapshotErrors, never as UB — this test runs under the sanitize preset
// (label `ckpt`).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdint>
#include <string>
#include <vector>

#include "snapshot/buffers.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/error.hpp"
#include "snapshot/format.hpp"
#include "snapshot/scenario.hpp"
#include "snapshot/state_io.hpp"

namespace {

using namespace bcs;
using snapshot::ScenarioSpec;
using snapshot::Simulation;
using snapshot::SnapshotError;

// ---------------------------------------------------------------------------
// Container format
// ---------------------------------------------------------------------------

TEST(SnapshotFormat, RoundTripsSections) {
  snapshot::SnapshotWriter w;
  const std::string alpha(10000, 'a');
  w.addSection("alpha", alpha);
  w.addSection("beta", std::string("\x00\x01\x02 binary", 10));
  const std::vector<std::uint8_t> blob = w.finish(0xfeedfacedeadbeefull);

  snapshot::SnapshotReader r(blob);
  EXPECT_EQ(r.fingerprint(), 0xfeedfacedeadbeefull);
  ASSERT_EQ(r.sections().size(), 2u);
  EXPECT_TRUE(r.hasSection("alpha"));
  EXPECT_TRUE(r.hasSection("beta"));
  EXPECT_FALSE(r.hasSection("gamma"));
  EXPECT_EQ(r.section("alpha"), alpha);
  EXPECT_EQ(r.section("beta"), std::string("\x00\x01\x02 binary", 10));
  // Repetitive payloads actually compress on disk.
  EXPECT_LT(r.sections()[0].comp_size, r.sections()[0].raw_size / 4);
}

TEST(SnapshotFormat, RejectsBadMagic) {
  snapshot::SnapshotWriter w;
  w.addSection("s", "payload");
  std::vector<std::uint8_t> blob = w.finish(1);
  blob[0] ^= 0xff;
  try {
    snapshot::SnapshotReader r(blob);
    FAIL() << "bad magic accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.section(), "header");
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos);
  }
}

TEST(SnapshotFormat, RejectsVersionSkew) {
  snapshot::SnapshotWriter w;
  w.addSection("s", "payload");
  std::vector<std::uint8_t> blob = w.finish(1);
  blob[4] = 9;  // format version lives right after the 4-byte magic
  try {
    snapshot::SnapshotReader r(blob);
    FAIL() << "version skew accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.section(), "header");
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(SnapshotFormat, RejectsTruncation) {
  snapshot::SnapshotWriter w;
  w.addSection("s", std::string(5000, 'q'));
  const std::vector<std::uint8_t> blob = w.finish(1);
  // Every prefix must be rejected loudly — header-level cuts and
  // payload-level cuts alike (ASan/UBSan guard the bounds checks).
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, std::size_t{11}, std::size_t{30},
        blob.size() - 1}) {
    std::vector<std::uint8_t> cut(blob.begin(),
                                  blob.begin() + static_cast<long>(keep));
    EXPECT_THROW(snapshot::SnapshotReader r(cut), SnapshotError)
        << "accepted a " << keep << "-byte prefix";
  }
}

TEST(SnapshotFormat, RejectsFlippedPayloadBit) {
  snapshot::SnapshotWriter w;
  w.addSection("s", std::string(5000, 'q'));
  std::vector<std::uint8_t> blob = w.finish(1);
  blob.back() ^= 0x01;  // payload corruption -> per-section CRC mismatch
  snapshot::SnapshotReader r(blob);  // table itself is intact
  try {
    (void)r.section("s");
    FAIL() << "corrupted payload accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.section(), "s");
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Encoding pin: the exact section bytes of three fixed captures
// ---------------------------------------------------------------------------

struct SectionPin {
  std::string name;
  std::uint64_t raw_size;
  std::uint32_t crc;  ///< snapshot::crc32 of the decompressed payload
};

/// Runs `spec` with a sink that captures at the first periodic boundary
/// whose slice index is at least `min_slice`, and returns that blob.
std::vector<std::uint8_t> captureAt(const ScenarioSpec& spec,
                                    std::uint64_t min_slice) {
  Simulation sim = snapshot::build(spec);
  std::vector<std::uint8_t> blob;
  sim.runtime->setSnapshotSink(
      [&sim, &blob, min_slice](std::uint64_t slice) {
        if (blob.empty() && slice >= min_slice) blob = snapshot::capture(sim);
      });
  sim.cluster->run(sim::msec(30));
  return blob;
}

std::vector<SectionPin> pinsOf(const std::vector<std::uint8_t>& blob) {
  snapshot::SnapshotReader r(blob);
  std::vector<SectionPin> pins;
  for (const snapshot::SectionInfo& s : r.sections()) {
    const std::string raw = r.section(s.name);
    pins.push_back(SectionPin{
        s.name, raw.size(),
        snapshot::crc32(reinterpret_cast<const std::uint8_t*>(raw.data()),
                        raw.size())});
  }
  return pins;
}

std::string render(const std::vector<SectionPin>& pins) {
  std::string out;
  for (const SectionPin& p : pins) {
    char line[96];
    std::snprintf(line, sizeof line, "  {\"%s\", %llu, 0x%08xu},\n",
                  p.name.c_str(), static_cast<unsigned long long>(p.raw_size),
                  p.crc);
    out += line;
  }
  return out;
}

// Any change to what the serializer writes — field order, width, a new
// field, a renamed section — moves these values.  A change that moves them
// on purpose bumps kFormatVersion in the same commit.  A change to how many
// events the simulation schedules moves only the `engine` rows' CRCs (the
// executed-event count and sequence counters), not the format.
TEST(SnapshotFormat, EncodingIsPinned) {
  EXPECT_EQ(snapshot::kFormatVersion, 3u);

  ScenarioSpec ring = snapshot::ckptRing();
  ring.mpi.checkpoint_every_slices = 4;
  const std::vector<SectionPin> ring_want = {
      {"meta", 26, 0x27e2a6a8u},
      {"engine", 52, 0x3dcf81c9u},
      {"rng", 32, 0x64dc7f3eu},
      {"fault", 60, 0xfa1ebc51u},
      {"fabric", 212, 0xfbd9fc3bu},
      {"core.runtime", 392, 0xbd51d3ddu},
      {"runtime", 1312, 0xc84b231au},
      {"workload", 264, 0x27a29b34u},
      {"buffers", 8388, 0x4ba3457eu},
  };
  EXPECT_EQ(render(pinsOf(captureAt(ring, 4))), render(ring_want))
      << "ckptRing @ slice 4";

  // The 32-node soup after node 13's eviction: STORM, the verifier and the
  // eviction bookkeeping are all populated.
  ScenarioSpec soup = snapshot::ckptSoup(/*verify=*/true);
  soup.mpi.checkpoint_every_slices = 8;
  const std::vector<std::uint8_t> soup_blob = captureAt(soup, 16);
  EXPECT_EQ(snapshot::restore(soup, soup_blob).runtime->stats().evictions, 1u);
  const std::vector<SectionPin> soup_want = {
      {"meta", 26, 0x9846ba35u},
      {"engine", 52, 0xe0525ef3u},
      {"rng", 32, 0x180a9d66u},
      {"fault", 60, 0x311d23d2u},
      {"fabric", 596, 0xd80c15d5u},
      {"core.runtime", 1352, 0x229d6cceu},
      {"runtime", 9517, 0xdbc5a90cu},
      {"core.storm", 544, 0xa30d10c3u},
      {"storm", 346, 0xac773e32u},
      {"verify", 97, 0x63708e08u},
      {"workload", 1032, 0xd226a3a1u},
      {"buffers", 17156, 0xed226babu},
  };
  EXPECT_EQ(render(pinsOf(soup_blob)), render(soup_want))
      << "ckptSoup(verify) @ slice 16";

  // The SS tree: rack sequence numbers and per-rack Strobe Senders.
  ScenarioSpec tree = snapshot::ckptTree();
  tree.mpi.checkpoint_every_slices = 4;
  const std::vector<SectionPin> tree_want = {
      {"meta", 26, 0x5fc26358u},
      {"engine", 52, 0x9c9ff9c8u},
      {"rng", 32, 0x0ff3808au},
      {"fault", 60, 0xed52c826u},
      {"fabric", 596, 0x596ddeb7u},
      {"core.runtime", 1352, 0x788d1701u},
      {"runtime", 6544, 0x0b1d24b2u},
      {"workload", 1032, 0xa97bf122u},
      {"buffers", 17156, 0x980fb9f5u},
  };
  EXPECT_EQ(render(pinsOf(captureAt(tree, 4))), render(tree_want))
      << "ckptTree @ slice 4";
}

// ---------------------------------------------------------------------------
// Capture guards and restore preconditions
// ---------------------------------------------------------------------------

TEST(SnapshotCapture, RefusesLiveFibers) {
  Simulation sim = snapshot::build(snapshot::ckptRing());
  sim.cluster->spawn(0, "fiber", [](sim::Process& p) { p.compute(100); });
  try {
    (void)snapshot::capture(sim);
    FAIL() << "captured a simulation with process fibers";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.section(), "capture");
    EXPECT_NE(std::string(e.what()).find("fiber"), std::string::npos);
  }
}

TEST(SnapshotBuffers, IdIsRegistrationIndex) {
  std::vector<std::byte> a(8);
  std::vector<std::byte> b(16);
  snapshot::BufferRegistry reg;
  EXPECT_EQ(reg.add(a.data(), a.size()), 0u);
  EXPECT_EQ(reg.add(b.data(), b.size()), 1u);
  EXPECT_EQ(reg.refOf(b.data() + 5).id, 1u);
  EXPECT_EQ(reg.refOf(b.data() + 5).offset, 5u);
  EXPECT_EQ(reg.resolve({1, 16}), b.data() + 16);  // one past the end
  EXPECT_EQ(reg.resolve({snapshot::kNullBuffer, 0}), nullptr);
  EXPECT_THROW(reg.resolve({2, 0}), SnapshotError);   // unknown id
  EXPECT_THROW(reg.resolve({0, 9}), SnapshotError);   // past the end
}

TEST(SnapshotRestore, RefusesFingerprintMismatch) {
  ScenarioSpec spec = snapshot::ckptRing();
  spec.mpi.checkpoint_every_slices = 2;
  Simulation b = snapshot::build(spec);
  std::vector<std::uint8_t> blob;
  b.runtime->setSnapshotSink(
      [&b, &blob](std::uint64_t) { blob = snapshot::capture(b); });
  b.cluster->run(sim::msec(2));
  ASSERT_FALSE(blob.empty());

  auto expectRefused = [&blob](const ScenarioSpec& other, const char* why) {
    try {
      (void)snapshot::restore(other, blob);
      ADD_FAILURE() << "restored although " << why;
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.section(), "header") << why;
      EXPECT_NE(std::string(e.what()).find("fingerprint"), std::string::npos)
          << why;
    }
  };
  ScenarioSpec other = spec;
  other.cluster.num_compute_nodes = 9;
  expectRefused(other, "the machine shape differs");
  // The RMA cost model changes simulated timing, so it is machine config.
  other = spec;
  other.mpi.rma_coalescing = !spec.mpi.rma_coalescing;
  expectRefused(other, "rma_coalescing differs");

  // A FaultPlan difference is NOT a fingerprint mismatch (branching replay).
  ScenarioSpec branch = spec;
  branch.cluster.faults.crashNode(3, sim::msec(10));
  EXPECT_NO_THROW({ Simulation c = snapshot::restore(branch, blob); });
}

TEST(SnapshotRestore, RejectsCorruptedBlobEndToEnd) {
  ScenarioSpec spec = snapshot::ckptRing();
  spec.mpi.checkpoint_every_slices = 2;
  Simulation b = snapshot::build(spec);
  std::vector<std::uint8_t> blob;
  b.runtime->setSnapshotSink(
      [&b, &blob](std::uint64_t) { blob = snapshot::capture(b); });
  b.cluster->run(sim::msec(2));
  ASSERT_FALSE(blob.empty());

  std::vector<std::uint8_t> corrupt = blob;
  corrupt[corrupt.size() - 2] ^= 0x10;
  EXPECT_THROW((void)snapshot::restore(spec, corrupt), SnapshotError);

  std::vector<std::uint8_t> cut(blob.begin(),
                                blob.begin() + static_cast<long>(40));
  EXPECT_THROW((void)snapshot::restore(spec, cut), SnapshotError);
}

// ---------------------------------------------------------------------------
// Crash-and-restore drills
// ---------------------------------------------------------------------------

struct DrillCase {
  const char* name;
  ScenarioSpec (*make)(bool verify);
  bool verify;
  std::uint64_t every;     ///< checkpoint_every_slices
  sim::SimTime kill;       ///< when the checkpointed run is killed
  sim::SimTime end;        ///< horizon for bounded runs; 0 = run to drain
};

void runUntil(Simulation& sim, sim::SimTime end) {
  if (end > 0) {
    sim.cluster->run(end);
  } else {
    sim.cluster->run();
  }
}

/// Every counter except the checkpoint bookkeeping itself: A never captures
/// (no sink installed), so checkpoints_taken/restores legitimately differ.
void expectStatsMatch(const Simulation& a, const Simulation& c) {
  bcsmpi::RuntimeStats sa = a.runtime->stats();
  bcsmpi::RuntimeStats sc = c.runtime->stats();
  sa.checkpoints_taken = sc.checkpoints_taken = 0;
  sa.restores = sc.restores = 0;
  EXPECT_TRUE(sa == sc) << "runtime stats differ";
  EXPECT_TRUE(a.cluster->fabric().stats() == c.cluster->fabric().stats())
      << "fabric stats differ";
  EXPECT_TRUE(a.cluster->faults()->stats() == c.cluster->faults()->stats())
      << "fault stats differ";
}

class SnapshotDrill : public ::testing::TestWithParam<DrillCase> {};

TEST_P(SnapshotDrill, RestoredRunContinuesByteIdentically) {
  const DrillCase& tc = GetParam();
  ScenarioSpec spec = tc.make(tc.verify);
  spec.mpi.checkpoint_every_slices = tc.every;

  // A — the uninterrupted reference (no sink; the periodic hook is inert).
  Simulation a = snapshot::build(spec);
  runUntil(a, tc.end);
  const std::string a_dump = a.cluster->trace().dump();

  // B — checkpointed, then killed mid-flight.
  Simulation b = snapshot::build(spec);
  std::vector<std::uint8_t> blob;
  std::uint64_t blob_slice = 0;
  b.runtime->setSnapshotSink([&b, &blob, &blob_slice](std::uint64_t slice) {
    blob = snapshot::capture(b);
    blob_slice = slice;
  });
  b.cluster->run(tc.kill);
  ASSERT_FALSE(blob.empty()) << "no checkpoint before the kill point";
  EXPECT_GT(b.runtime->stats().checkpoints_taken, 0u);
  const auto prefix =
      static_cast<std::size_t>(snapshot::traceRecordsAt(blob));
  ASSERT_LE(prefix, b.cluster->trace().records().size());
  ASSERT_LE(prefix, a.cluster->trace().records().size());
  const std::string b_prefix = b.cluster->trace().dump(prefix);
  // The sink is pure observation: B's trace up to the capture instant is
  // byte-identical to the sink-less A's.
  ASSERT_EQ(b_prefix, a.cluster->trace().dump(prefix));

  // C — a fresh stack restored from the blob, run to the same horizon.
  Simulation c = snapshot::restore(spec, blob);
  EXPECT_EQ(c.runtime->stats().restores, 1u);
  // The boundary turnover (++slice_index_ etc.) replays as the first event
  // of the restored run, so before run() the index is still the captured one.
  EXPECT_EQ(c.runtime->sliceIndex(), blob_slice);
  runUntil(c, tc.end);

  const std::string spliced = b_prefix + c.cluster->trace().dump();
  if (spliced != a_dump) {
    // Locate the divergence instead of dumping two multi-MB strings.
    std::size_t i = 0;
    const std::size_t n = std::min(spliced.size(), a_dump.size());
    while (i < n && spliced[i] == a_dump[i]) ++i;
    const std::size_t from = i < 120 ? 0 : i - 120;
    FAIL() << tc.name << ": restored continuation diverges at byte " << i
           << "\n  uninterrupted: ...\n"
           << a_dump.substr(from, 240) << "\n  restored: ...\n"
           << spliced.substr(from, 240);
  }

  expectStatsMatch(a, c);
  EXPECT_EQ(a.workload->dataDigest(), c.workload->dataDigest());
  EXPECT_EQ(a.workload->finishedRanks(), c.workload->finishedRanks());
  if (tc.verify) {
    ASSERT_NE(a.runtime->verifier(), nullptr);
    ASSERT_NE(c.runtime->verifier(), nullptr);
    EXPECT_EQ(a.runtime->verifier()->report().render(),
              c.runtime->verifier()->report().render());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, SnapshotDrill,
    ::testing::Values(
        DrillCase{"ring", &snapshot::ckptRing, false, 4, sim::msec(3), 0},
        DrillCase{"ring_verify", &snapshot::ckptRing, true, 4, sim::msec(3),
                  0},
        DrillCase{"soup", &snapshot::ckptSoup, false, 8, sim::msec(12),
                  sim::msec(30)},
        DrillCase{"soup_verify", &snapshot::ckptSoup, true, 8, sim::msec(12),
                  sim::msec(30)},
        DrillCase{"tree", &snapshot::ckptTree, false, 4, sim::msec(3), 0},
        DrillCase{"tree_verify", &snapshot::ckptTree, true, 4, sim::msec(3),
                  0}),
    [](const auto& info) { return std::string(info.param.name); });

// The periodic sink must not perturb the run it observes, end to end.
TEST(SnapshotPolicy, SinkIsPureObservation) {
  ScenarioSpec spec = snapshot::ckptRing();
  spec.mpi.checkpoint_every_slices = 4;

  Simulation plain = snapshot::build(spec);
  plain.cluster->run();

  Simulation observed = snapshot::build(spec);
  std::uint64_t captures = 0;
  observed.runtime->setSnapshotSink([&observed, &captures](std::uint64_t) {
    (void)snapshot::capture(observed);
    ++captures;
  });
  observed.cluster->run();

  EXPECT_GT(captures, 2u);
  EXPECT_EQ(observed.runtime->stats().checkpoints_taken, captures);
  EXPECT_EQ(plain.cluster->trace().dump(), observed.cluster->trace().dump());
  EXPECT_EQ(plain.workload->dataDigest(), observed.workload->dataDigest());
}

// ---------------------------------------------------------------------------
// Branching what-if replay
// ---------------------------------------------------------------------------

TEST(SnapshotBranch, ForkedFaultPlansDivergeAfterTheSnapshot) {
  // One snapshot of the 32-node soup taken *before* node 13's crash lands,
  // forked into two futures: the original plan (13 dies at 6 ms) and a
  // what-if plan with the crash removed.  bcs-verify rides along on both.
  ScenarioSpec spec = snapshot::ckptSoup(/*verify=*/true);
  spec.mpi.checkpoint_every_slices = 8;  // slice 8 boundary = 4.2 ms < 6 ms

  Simulation b = snapshot::build(spec);
  std::vector<std::uint8_t> blob;
  b.runtime->setSnapshotSink([&b, &blob](std::uint64_t) {
    if (blob.empty()) blob = snapshot::capture(b);  // keep the first one
  });
  b.cluster->run(sim::msec(5));
  ASSERT_FALSE(blob.empty());

  Simulation with_crash = snapshot::restore(spec, blob);
  with_crash.cluster->run(sim::msec(30));

  ScenarioSpec what_if = spec;
  what_if.cluster.faults = sim::FaultPlan{};
  what_if.cluster.faults.dropRate(0.05);  // same loss, no crash
  Simulation no_crash = snapshot::restore(what_if, blob);
  no_crash.cluster->run(sim::msec(30));

  EXPECT_EQ(with_crash.runtime->stats().evictions, 1u);
  EXPECT_EQ(no_crash.runtime->stats().evictions, 0u);
  EXPECT_GT(with_crash.runtime->stats().requests_failed, 0u);
  EXPECT_NE(with_crash.cluster->trace().dump(),
            no_crash.cluster->trace().dump());
  EXPECT_NE(with_crash.workload->dataDigest(),
            no_crash.workload->dataDigest());
  // Only the crashed branch sees failures; the what-if branch stays clean
  // (5% drops are absorbed by retransmission, never surfaced as errors).
  EXPECT_EQ(no_crash.runtime->stats().requests_failed, 0u);
  EXPECT_GT(no_crash.runtime->stats().retransmits, 0u);
}

}  // namespace

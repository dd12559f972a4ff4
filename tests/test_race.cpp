// bcs-race conformance tier (ctest label: race).
//
// The contract under test (src/race, DESIGN.md §10):
//   * a mis-sharded workload — an event on a foreign shard touching state
//     owned by shard 0 — is caught with full provenance (event key, time,
//     call site), and the RaceReport is identical at threads=1 and
//     threads=4: the detector sees the *logical* race on every run, where
//     TSan sees only physically-exhibited interleavings;
//   * write-write and read-write conflicts between two shards surface as
//     distinct categories with both shards' provenance;
//   * cross-shard Engine::atOn/cancel in serial mode (legal for the serial
//     engine, fatal for the parallel one) surface as ownership violations
//     on the target shard's queue;
//   * a clean run — the full 32-node fault soup — has zero findings and
//     traces byte-identically with the detector on or off, serial and
//     parallel.
//
// The conflicting shards are chosen so they share a worker at every tested
// thread count (shards s and s' share a worker when s ≡ s' mod threads), so
// the "race" is never physically concurrent — the tier is TSan-clean by
// construction, which is itself the point: the detector needs no physical
// interleaving to fire.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bcsmpi/comm.hpp"
#include "net/cluster.hpp"
#include "race/race.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"
#include "storm/storm.hpp"

namespace {

using namespace bcs;
using sim::msec;
using sim::SimTime;
using sim::usec;

bcsmpi::BcsMpiConfig quickCfg() {
  bcsmpi::BcsMpiConfig cfg;
  cfg.runtime_init_overhead = usec(50);
  return cfg;
}

// ---------------------------------------------------------------------------
// Detector core: conflicts between two shards, direct record() calls
// ---------------------------------------------------------------------------

/// Shards 1 and 5 share a worker at threads ∈ {1, 2, 4} (5 ≡ 1 mod each),
/// so these conflicts are logical, never physical.
race::RaceReport runTwoShardConflicts(int threads) {
  sim::Engine eng;
  sim::Trace trace;
  trace.enable();
  race::RaceDetector det(eng, &trace);
  // Object 100 is owned by shard 1; object 200 too.  Shard 5 then writes
  // 100 (write-write) and reads 200 (read-write).
  det.registerObject(race::ObjectKind::kNodeState, 100, 1);
  det.registerObject(race::ObjectKind::kNodeState, 200, 1);

  eng.atOn(1, usec(10), [&] {
    det.record(race::ObjectKind::kNodeState, 100, race::FieldGroup::kDma,
               race::RaceDetector::Access::kWrite, "test::owner_write");
    det.record(race::ObjectKind::kNodeState, 200, race::FieldGroup::kDma,
               race::RaceDetector::Access::kWrite, "test::owner_write");
  });
  eng.atOn(5, usec(15), [&] {
    det.record(race::ObjectKind::kNodeState, 100, race::FieldGroup::kDma,
               race::RaceDetector::Access::kWrite, "test::foreign_write");
    det.record(race::ObjectKind::kNodeState, 200, race::FieldGroup::kDma,
               race::RaceDetector::Access::kRead, "test::foreign_read");
  });

  if (threads > 0) {
    sim::ParallelPolicy policy;
    policy.threads = threads;
    policy.window = usec(100);
    policy.clamp_to_hardware = false;
    eng.run(policy);
  } else {
    eng.run();
  }
  return det.finalize(eng.now());
}

TEST(RaceDetector, WriteWriteAndReadWriteConflictsWithProvenance) {
  const race::RaceReport rep = runTwoShardConflicts(/*threads=*/1);
  EXPECT_FALSE(rep.clean());
  EXPECT_EQ(rep.counts[static_cast<int>(race::Category::kWriteWrite)], 1u);
  EXPECT_EQ(rep.counts[static_cast<int>(race::Category::kReadWrite)], 1u);
  EXPECT_EQ(rep.counts[static_cast<int>(race::Category::kOwnershipViolation)],
            0u);
  EXPECT_EQ(rep.accesses_recorded, 4u);
  ASSERT_EQ(rep.findings.size(), 2u);
  // Canonical order: ObjectKey ascending, so object 100 (write-write) first.
  const race::Finding& ww = rep.findings[0];
  EXPECT_EQ(ww.category, race::Category::kWriteWrite);
  EXPECT_EQ(ww.id, 100u);
  EXPECT_NE(ww.detail.find("shard 1"), std::string::npos) << ww.detail;
  EXPECT_NE(ww.detail.find("shard 5"), std::string::npos) << ww.detail;
  EXPECT_NE(ww.detail.find("site=test::owner_write"), std::string::npos);
  EXPECT_NE(ww.detail.find("site=test::foreign_write"), std::string::npos);
  EXPECT_NE(ww.detail.find("key=0x"), std::string::npos) << ww.detail;
  const race::Finding& rw = rep.findings[1];
  EXPECT_EQ(rw.category, race::Category::kReadWrite);
  EXPECT_EQ(rw.id, 200u);
  EXPECT_NE(rw.detail.find("site=test::foreign_read"), std::string::npos);
}

TEST(RaceDetector, ReportIdenticalAtEveryThreadCount) {
  const race::RaceReport ref = runTwoShardConflicts(/*threads=*/1);
  for (int threads : {2, 4}) {
    EXPECT_EQ(runTwoShardConflicts(threads), ref) << "threads=" << threads;
  }
  // The serial engine merges only at finalize (one big window), so the
  // window counters differ — but the findings and categories must not.
  const race::RaceReport serial = runTwoShardConflicts(/*threads=*/0);
  EXPECT_EQ(serial.counts[0], ref.counts[0]);
  EXPECT_EQ(serial.counts[1], ref.counts[1]);
  EXPECT_EQ(serial.counts[2], ref.counts[2]);
  EXPECT_EQ(serial.accesses_recorded, ref.accesses_recorded);
}

TEST(RaceDetector, RecordOutsideEventExecutionIsIgnored) {
  sim::Engine eng;
  race::RaceDetector det(eng, nullptr);
  // Setup/teardown code runs single-threaded by construction; accesses
  // there are not window-attributable and must not count.
  det.record(race::ObjectKind::kNodeState, 1, race::FieldGroup::kDma,
             race::RaceDetector::Access::kWrite, "test::setup");
  const race::RaceReport& rep = det.finalize(eng.now());
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.accesses_recorded, 0u);
}

TEST(RaceDetector, SerialCrossShardSchedulingIsAnOwnershipViolation) {
  sim::Engine eng;
  race::RaceDetector det(eng, nullptr);
  // Legal on the serial engine, fatal on the parallel one: an event on
  // shard 0 scheduling onto (and cancelling on) shard 3.  The detector
  // surfaces it as a foreign write to shard 3's queue, so the violation is
  // caught *before* anyone tries the workload under the parallel drain.
  eng.at(usec(5), [&] {
    const sim::EventId ev = eng.atOn(3, usec(50), [] {});
    eng.cancel(ev);
  });
  eng.run();
  const race::RaceReport& rep = det.finalize(eng.now());
  EXPECT_EQ(rep.counts[static_cast<int>(race::Category::kOwnershipViolation)],
            1u);
  ASSERT_EQ(rep.findings.size(), 1u);
  const race::Finding& f = rep.findings[0];
  EXPECT_EQ(f.kind, race::ObjectKind::kShardQueue);
  EXPECT_EQ(f.id, 3u);
  EXPECT_NE(f.detail.find("owned by shard 3"), std::string::npos) << f.detail;
  EXPECT_NE(f.detail.find("site=Engine::atOn"), std::string::npos) << f.detail;
}

// ---------------------------------------------------------------------------
// Full runtime: a mis-sharded workload is caught; reports match at 1 and 4
// ---------------------------------------------------------------------------

struct MisShardedOut {
  race::RaceReport report;
  std::string trace;
  std::size_t race_records = 0;

  bool operator==(const MisShardedOut&) const = default;
};

/// Two detached ranks; rank 1's send is posted from shard 4 — state owned
/// by shard 0 (the whole BCS control plane) written from a foreign shard.
/// Shard 4 shares a worker with shard 0 at threads ∈ {1, 2, 4}, so the
/// violation is logical only and this test is sanitizer-clean.
MisShardedOut runMisShardedWorkload(int threads) {
  net::ClusterConfig ccfg;
  ccfg.num_compute_nodes = 2;
  ccfg.seed = 777;
  net::Cluster cluster(ccfg);
  cluster.trace().enable();

  bcsmpi::BcsMpiConfig cfg = quickCfg();
  cfg.race_detect = true;
  auto runtime = std::make_shared<bcsmpi::Runtime>(cluster, cfg);
  const int job = runtime->createJob({0, 1});
  runtime->registerDetachedRank(job, 0);
  runtime->registerDetachedRank(job, 1);

  auto buf = std::make_shared<std::array<std::uint8_t, 64>>();
  auto rbuf = std::make_shared<std::array<std::uint8_t, 64>>();
  // The violation: rank 1's post runs on shard 4 (mid-window, not on the
  // slice grid, so its window assignment is unambiguous).
  cluster.engine().atOn(4, msec(2) + usec(123), [runtime, job, buf] {
    runtime->postSend(job, 1, buf->data(), buf->size(), /*dst=*/0, /*tag=*/7);
  });
  // The matching receive, legally posted from shard 0.
  cluster.engine().at(msec(2) + usec(123), [runtime, job, rbuf] {
    runtime->postRecv(job, 0, rbuf->data(), rbuf->size(), /*src=*/1,
                      /*tag=*/7);
  });
  cluster.engine().at(msec(30), [runtime, job] {
    runtime->rankFinished(job, 0);
    runtime->rankFinished(job, 1);
  });

  if (threads > 0) {
    auto policy = runtime->parallelPolicy(threads);
    policy.clamp_to_hardware = false;
    cluster.run(policy);
  } else {
    cluster.run();
  }

  const race::RaceReport* rep = runtime->raceAudit();
  EXPECT_NE(rep, nullptr);
  MisShardedOut out;
  if (rep != nullptr) out.report = *rep;
  out.trace = cluster.trace().dump();
  out.race_records = cluster.trace().count([](const sim::TraceRecord& r) {
    return r.category == sim::TraceCategory::kRace;
  });
  return out;
}

TEST(RaceRuntime, MisShardedPostIsCaughtWithProvenance) {
  const MisShardedOut out = runMisShardedWorkload(/*threads=*/1);
  const race::RaceReport& rep = out.report;
  EXPECT_FALSE(rep.clean()) << rep.render();
  EXPECT_TRUE(rep.finalized);
  // The foreign postSend writes node 1's BufferSender state — which shard 0
  // also writes that window (the DEM drain) — and rank 1's request table,
  // which nobody else touches that window: one write-write conflict and one
  // ownership violation, both anchored at Runtime::postSend.
  EXPECT_GE(rep.counts[static_cast<int>(race::Category::kWriteWrite)], 1u)
      << rep.render();
  EXPECT_GE(
      rep.counts[static_cast<int>(race::Category::kOwnershipViolation)], 1u)
      << rep.render();
  bool saw_node_state = false;
  bool saw_rank_table = false;
  for (const race::Finding& f : rep.findings) {
    if (f.detail.find("site=Runtime::postSend") == std::string::npos) continue;
    if (f.kind == race::ObjectKind::kNodeState) saw_node_state = true;
    if (f.kind == race::ObjectKind::kRankTable) {
      saw_rank_table = true;
      EXPECT_NE(f.detail.find("j0/r1"), std::string::npos) << f.detail;
      EXPECT_NE(f.detail.find("shard 4"), std::string::npos) << f.detail;
    }
  }
  EXPECT_TRUE(saw_node_state) << rep.render();
  EXPECT_TRUE(saw_rank_table) << rep.render();
  // Findings ride the trace under their own category.
  EXPECT_GE(out.race_records, 1u);
}

TEST(RaceRuntime, MisShardedReportIdenticalAtThreads1And4) {
  const MisShardedOut ref = runMisShardedWorkload(/*threads=*/1);
  ASSERT_FALSE(ref.report.clean());
  const MisShardedOut par4 = runMisShardedWorkload(/*threads=*/4);
  EXPECT_EQ(par4.report, ref.report) << par4.report.render();
  EXPECT_EQ(par4.trace, ref.trace);
}

// ---------------------------------------------------------------------------
// Clean runs: zero findings, byte-identical traces detector-on/off
// ---------------------------------------------------------------------------

struct SoupOut {
  std::string trace;
  std::uint64_t executed = 0;
  std::uint64_t cancelled = 0;
  std::size_t unfinished = 0;
  std::vector<std::uint64_t> numbers;

  bool operator==(const SoupOut&) const = default;
};

/// The 32-node fault soup from the parallel tier (5% drop + node 13 crash),
/// with the race detector optionally watching.  Everything lives on shard 0,
/// so the detector must find nothing — and, being a pure observer, must not
/// perturb a single byte of the run.
SoupOut runFaultSoup(int threads, bool race_detect) {
  const int P = 32;
  net::ClusterConfig ccfg;
  ccfg.num_compute_nodes = P;
  ccfg.seed = 20260805;
  ccfg.faults.dropRate(0.05);
  ccfg.faults.crashNode(13, msec(6));
  net::Cluster cluster(ccfg);
  cluster.trace().enable();

  bcsmpi::BcsMpiConfig cfg = quickCfg();
  cfg.race_detect = race_detect;
  auto runtime = std::make_shared<bcsmpi::Runtime>(cluster, cfg);
  storm::StormConfig scfg;
  scfg.heartbeat_period = usec(500);
  storm::Storm storm(cluster, scfg);
  storm.setDeathHandler([&](int node) { runtime->notifyNodeFailure(node); });
  storm.startHeartbeats();
  cluster.engine().at(msec(120), [&] { storm.stopHeartbeats(); });

  std::vector<int> map(P);
  std::iota(map.begin(), map.end(), 0);
  std::vector<int> completed(P, 0), failed(P, 0);
  bcsmpi::launchJob(*runtime, map, [&](mpi::Comm& comm) {
    const int me = comm.rank();
    std::vector<std::uint8_t> out(2048), in(2048);
    for (int round = 0; round < 10; ++round) {
      const int partner = me ^ (1 + (round % 7));
      if (partner >= P) continue;
      auto sreq = comm.isend(out.data(), out.size(), partner, round);
      auto rreq = comm.irecv(in.data(), in.size(), partner, round);
      mpi::Status ss, rs;
      comm.wait(sreq, &ss);
      comm.wait(rreq, &rs);
      auto& cell = (ss.error == mpi::kSuccess && rs.error == mpi::kSuccess)
                       ? completed
                       : failed;
      ++cell[static_cast<std::size_t>(me)];
    }
  });

  if (threads > 0) {
    auto policy = runtime->parallelPolicy(threads);
    policy.clamp_to_hardware = false;
    cluster.run(policy);
  } else {
    cluster.run();
  }

  const race::RaceReport* rep = runtime->raceAudit();
  if (race_detect) {
    EXPECT_NE(rep, nullptr);
    if (rep != nullptr) {
      EXPECT_TRUE(rep->clean()) << rep->render();
      EXPECT_GT(rep->accesses_recorded, 1000u);  // it really was watching
      EXPECT_GT(rep->windows_merged, 10u);
    }
  } else {
    EXPECT_EQ(rep, nullptr);
  }

  SoupOut out;
  out.trace = cluster.trace().dump();
  out.executed = cluster.engine().executedEvents();
  out.cancelled = cluster.engine().cancelledEvents();
  out.unfinished = cluster.unfinishedProcesses().size();
  out.numbers = {runtime->stats().evictions, runtime->stats().retransmits,
                 runtime->stats().requests_failed,
                 cluster.fabric().stats().drops,
                 cluster.fabric().stats().unicasts,
                 cluster.fabric().stats().payload_bytes};
  for (int v : completed) out.numbers.push_back(static_cast<std::uint64_t>(v));
  for (int v : failed) out.numbers.push_back(static_cast<std::uint64_t>(v));
  return out;
}

TEST(RaceRuntime, FaultSoup32DetectorOnIsCleanAndByteIdentical) {
  const SoupOut off_serial = runFaultSoup(/*threads=*/0, /*race=*/false);
  ASSERT_FALSE(off_serial.trace.empty());
  ASSERT_EQ(off_serial.unfinished, 1u);  // the crashed node's rank
  const SoupOut on_serial = runFaultSoup(/*threads=*/0, /*race=*/true);
  EXPECT_EQ(on_serial, off_serial);
  const SoupOut on_par = runFaultSoup(/*threads=*/4, /*race=*/true);
  EXPECT_EQ(on_par, off_serial);
}

}  // namespace

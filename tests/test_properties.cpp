// Property-style parameterized suites over the protocol's key invariants:
//
//  * blocking delay stays within [1, 2] time slices for any slice length;
//  * chunk accounting: a B-byte message moves in exactly
//    ceil(B / min(chunk, budget-share)) chunks and its transfer spans at
//    least (chunks - 1) slices;
//  * fabric endpoint contention conserves bytes (no transfer finishes
//    faster than the serialization bound) across all network presets;
//  * randomized message soups deliver every byte intact under both
//    implementations for many (seed, size) combinations;
//  * the serial engine fires a randomized schedule/cancel/handoff mix in
//    canonical order across its drain-window boundaries.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <numeric>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/selfsched.hpp"
#include "baseline/baseline.hpp"
#include "bcsmpi/comm.hpp"
#include "bcsmpi/matching.hpp"
#include "net/cluster.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace {

using namespace bcs;
using sim::msec;
using sim::usec;

// ---- blocking delay bounded by [1, 2] slices for any slice length ----

class BlockingDelayBounds : public ::testing::TestWithParam<double> {};

TEST_P(BlockingDelayBounds, StaysWithinOneToTwoSlices) {
  const double slice_us = GetParam();
  net::ClusterConfig ccfg;
  ccfg.num_compute_nodes = 2;
  net::Cluster cluster(ccfg);
  bcsmpi::BcsMpiConfig cfg;
  cfg.runtime_init_overhead = usec(50);
  cfg.time_slice = usec(slice_us);
  if (cfg.dem_floor + cfg.msm_floor > cfg.time_slice / 2) {
    cfg.dem_floor = cfg.time_slice / 8;
    cfg.msm_floor = cfg.time_slice / 8;
    cfg.dem_drain_window = cfg.dem_floor / 4;
  }
  sim::Accumulator acc;
  bcsmpi::runJob(cluster, cfg, {0, 1}, [&](mpi::Comm& comm) {
    char c = 0;
    for (int i = 0; i < 30; ++i) {
      comm.compute(usec(31 + 83 * (i % 11)));  // scan phases
      if (comm.rank() == 0) {
        const sim::SimTime t0 = comm.now();
        comm.send(&c, 1, 1, 0);
        acc.add(sim::toUsec(comm.now() - t0) / slice_us);
      } else {
        comm.recv(&c, 1, 0, 0);
      }
    }
  });
  // Individual delays live in [1, 2] slices (+ microphase epsilon); the
  // mean sits near 1.5.
  EXPECT_GE(acc.min(), 0.95);
  EXPECT_LE(acc.max(), 2.15);
  EXPECT_GT(acc.mean(), 1.2);
  EXPECT_LT(acc.mean(), 1.8);
}

INSTANTIATE_TEST_SUITE_P(SliceLengths, BlockingDelayBounds,
                         ::testing::Values(250.0, 500.0, 750.0, 1000.0),
                         [](const auto& info) {
                           return "us" + std::to_string(
                                             static_cast<int>(info.param));
                         });

// ---- chunk accounting ----

class ChunkAccounting
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(ChunkAccounting, ChunkCountAndSliceSpanMatchTheModel) {
  const auto [message_kb, chunk_kb] = GetParam();
  const std::size_t bytes = message_kb << 10;
  const std::size_t chunk = chunk_kb << 10;

  net::ClusterConfig ccfg;
  ccfg.num_compute_nodes = 2;
  net::Cluster cluster(ccfg);
  bcsmpi::BcsMpiConfig cfg;
  cfg.runtime_init_overhead = usec(50);
  cfg.chunk_bytes = chunk;
  cfg.slice_byte_budget = chunk;  // exactly one chunk per slice
  auto runtime = std::make_shared<bcsmpi::Runtime>(cluster, cfg);
  sim::SimTime span = 0;
  bcsmpi::launchJob(*runtime, {0, 1}, [&](mpi::Comm& comm) {
    std::vector<char> buf(bytes, 'x');
    if (comm.rank() == 0) {
      const sim::SimTime t0 = comm.now();
      comm.send(buf.data(), bytes, 1, 0);
      span = comm.now() - t0;
    } else {
      comm.recv(buf.data(), bytes, 0, 0);
    }
  });
  cluster.run();
  ASSERT_TRUE(cluster.allProcessesFinished());

  const auto expected_chunks =
      static_cast<std::uint64_t>((bytes + chunk - 1) / chunk);
  EXPECT_EQ(runtime->stats().chunks_transferred, expected_chunks);
  if (expected_chunks > 1) {
    // One chunk per slice: the send occupies at least chunks-1 full slices.
    EXPECT_GE(span, static_cast<sim::SimTime>(expected_chunks - 1) *
                        cfg.time_slice);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndChunks, ChunkAccounting,
    ::testing::Values(std::make_tuple(16u, 64u), std::make_tuple(64u, 64u),
                      std::make_tuple(65u, 64u), std::make_tuple(256u, 64u),
                      std::make_tuple(256u, 32u), std::make_tuple(96u, 16u)),
    [](const auto& info) {
      return "msg" + std::to_string(std::get<0>(info.param)) + "k_chunk" +
             std::to_string(std::get<1>(info.param)) + "k";
    });

// ---- fabric serialization bound across all presets ----

class FabricSerialization : public ::testing::TestWithParam<int> {};

TEST_P(FabricSerialization, TransfersRespectTheSerializationBound) {
  net::NetworkParams params;
  switch (GetParam()) {
    case 0: params = net::NetworkParams::qsnet(); break;
    case 1: params = net::NetworkParams::gigabitEthernet(); break;
    case 2: params = net::NetworkParams::myrinet(); break;
    case 3: params = net::NetworkParams::infiniband(); break;
    default: params = net::NetworkParams::bluegeneL(); break;
  }
  sim::Engine eng;
  net::Fabric fabric(eng, params, 8);
  // 4 concurrent 256 KiB transfers into node 0: the last completion cannot
  // beat total_bytes / effective_bandwidth.
  const std::size_t bytes = 256 << 10;
  sim::SimTime last = 0;
  int done = 0;
  for (int s = 1; s <= 4; ++s) {
    fabric.unicast(s, 0, bytes, [&] {
      last = eng.now();
      ++done;
    });
  }
  eng.run();
  EXPECT_EQ(done, 4);
  const double bound_ns =
      4.0 * static_cast<double>(bytes) / params.effectiveBandwidth();
  EXPECT_GE(static_cast<double>(last), bound_ns * 0.999);
}

std::string networkCaseName(const ::testing::TestParamInfo<int>& info) {
  static const char* const kNames[] = {"qsnet", "gige", "myrinet",
                                       "infiniband", "bluegene"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllNetworks, FabricSerialization,
                         ::testing::Range(0, 5), networkCaseName);

// ---- MSM matcher: envelope index vs reference quadratic matcher ----

// The envelope-hash match index (bcsmpi/matching.hpp) must produce the
// exact match sequence of the original quadratic matcher: visit receives in
// posting order, pair each with the lowest-posting-seq matching send (MPI
// non-overtaking).  Random soups cover wildcard source/tag receives,
// internal negative tags, and send arrival orders scrambled by simulated
// retransmission.
class MatcherEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

namespace matcher_ref {

using bcsmpi::RecvDescriptor;
using bcsmpi::SendDescriptor;
using MatchLog = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

// Verbatim port of the pre-index Runtime::matchDescriptors loop.
MatchLog quadratic(std::deque<RecvDescriptor> recvs,
                   std::deque<SendDescriptor> sends) {
  MatchLog log;
  for (auto rit = recvs.begin(); rit != recvs.end();) {
    auto sit = sends.end();
    for (auto cand = sends.begin(); cand != sends.end(); ++cand) {
      if (!bcsmpi::envelopeMatches(*rit, *cand)) continue;
      if (sit == sends.end() || cand->seq < sit->seq) sit = cand;
    }
    if (sit == sends.end()) {
      ++rit;
      continue;
    }
    log.emplace_back(rit->seq, sit->seq);
    sends.erase(sit);
    rit = recvs.erase(rit);
  }
  return log;
}

// The candidate-list pass from Runtime::matchDescriptors, driven through
// the public index API.
MatchLog indexed(bcsmpi::RecvMatchIndex& recvs, bcsmpi::SendMatchIndex& sends) {
  MatchLog log;
  std::vector<std::uint64_t> cand;
  sends.forEachEnvelope([&](const bcsmpi::EnvelopeKey& key) {
    if (const auto* bucket = recvs.bucketFor(key)) {
      cand.insert(cand.end(), bucket->begin(), bucket->end());
    }
  });
  cand.insert(cand.end(), recvs.wildcards().begin(), recvs.wildcards().end());
  std::sort(cand.begin(), cand.end());
  for (const std::uint64_t recv_seq : cand) {
    const RecvDescriptor* r = recvs.find(recv_seq);
    if (r == nullptr) continue;
    const SendDescriptor* s = sends.lowestSeqMatch(*r);
    if (s == nullptr) continue;
    log.emplace_back(recv_seq, s->seq);
    sends.take(s->seq);
    recvs.take(recv_seq);
  }
  return log;
}

}  // namespace matcher_ref

TEST_P(MatcherEquivalence, IndexMatcherReproducesQuadraticMatchSequence) {
  sim::Rng rng(GetParam());
  std::uint64_t next_seq = 0;

  bcsmpi::SendMatchIndex send_index;
  bcsmpi::RecvMatchIndex recv_index;
  std::deque<bcsmpi::SendDescriptor> ref_sends;
  std::deque<bcsmpi::RecvDescriptor> ref_recvs;

  // Several matching rounds against carried-over leftovers, like successive
  // MSM slices.
  for (int round = 0; round < 4; ++round) {
    std::vector<bcsmpi::SendDescriptor> sends;
    const int n_sends = 20 + static_cast<int>(rng.below(30));
    for (int i = 0; i < n_sends; ++i) {
      bcsmpi::SendDescriptor s;
      s.job = static_cast<int>(rng.below(2));
      s.dst_rank = static_cast<int>(rng.below(2));
      s.src_rank = static_cast<int>(rng.below(4));
      // Mostly small app tags; occasionally an internal negative tag.
      s.tag = rng.below(8) == 0 ? -2 : static_cast<int>(rng.below(3));
      s.bytes = 64;
      s.seq = ++next_seq;
      sends.push_back(s);
    }
    const int n_recvs = 20 + static_cast<int>(rng.below(30));
    std::vector<bcsmpi::RecvDescriptor> recvs;
    for (int i = 0; i < n_recvs; ++i) {
      bcsmpi::RecvDescriptor r;
      r.job = static_cast<int>(rng.below(2));
      r.dst_rank = static_cast<int>(rng.below(2));
      r.want_src = rng.below(5) == 0 ? mpi::kAnySource
                                     : static_cast<int>(rng.below(4));
      r.want_tag = rng.below(5) == 0
                       ? mpi::kAnyTag
                       : (rng.below(8) == 0 ? -2
                                            : static_cast<int>(rng.below(3)));
      r.bytes = 64;
      r.seq = ++next_seq;
      recvs.push_back(r);
    }
    // Sends arrive in scrambled order (retransmitted descriptors land
    // behind younger ones); receives become eligible in posting order.
    for (std::size_t i = sends.size(); i > 1; --i) {
      std::swap(sends[i - 1], sends[rng.below(i)]);
    }
    for (const auto& s : sends) {
      send_index.insert(s);
      ref_sends.push_back(s);
    }
    for (const auto& r : recvs) {
      recv_index.insert(r);
      ref_recvs.push_back(r);
    }

    const auto expected = matcher_ref::quadratic(ref_recvs, ref_sends);
    const auto actual = matcher_ref::indexed(recv_index, send_index);
    ASSERT_EQ(actual, expected) << "seed " << GetParam() << " round " << round;

    // Mirror the consumed pairs in the reference queues for the next round.
    for (const auto& [recv_seq, send_seq] : expected) {
      ref_recvs.erase(std::find_if(
          ref_recvs.begin(), ref_recvs.end(),
          [s = recv_seq](const auto& r) { return r.seq == s; }));
      ref_sends.erase(std::find_if(
          ref_sends.begin(), ref_sends.end(),
          [s = send_seq](const auto& d) { return d.seq == s; }));
    }
    ASSERT_EQ(send_index.size(), ref_sends.size());
    ASSERT_EQ(recv_index.size(), ref_recvs.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherEquivalence,
                         ::testing::Values(1u, 7u, 42u, 123u, 999u, 5309u,
                                           271828u, 3141592u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---- matching order is independent of within-slice arrival order ----

// The MSM visits receives by posting seq (the candidate list is sorted) and
// pairs each with the lowest-posting-seq send, so the match outcome is a
// pure function of the descriptor *set* — never of the order descriptors
// reached the index.  This is the replay-determinism property the verifier's
// wildcard-race check leans on: permuting every insertion order (sends and
// receives alike, as retransmission and NIC scheduling would) must
// reproduce the identical match log.
class MatcherPermutation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MatcherPermutation, MatchLogIsInvariantUnderArrivalOrder) {
  sim::Rng gen_rng(0xfeedface);
  std::uint64_t next_seq = 0;

  // One fixed descriptor soup, built once from a constant seed (wildcards
  // included — the hardest case, since any source can satisfy them).
  std::vector<bcsmpi::SendDescriptor> sends;
  for (int i = 0; i < 40; ++i) {
    bcsmpi::SendDescriptor s;
    s.job = static_cast<int>(gen_rng.below(2));
    s.dst_rank = static_cast<int>(gen_rng.below(2));
    s.src_rank = static_cast<int>(gen_rng.below(4));
    s.tag = static_cast<int>(gen_rng.below(3));
    s.bytes = 64;
    s.seq = ++next_seq;
    sends.push_back(s);
  }
  std::vector<bcsmpi::RecvDescriptor> recvs;
  for (int i = 0; i < 40; ++i) {
    bcsmpi::RecvDescriptor r;
    r.job = static_cast<int>(gen_rng.below(2));
    r.dst_rank = static_cast<int>(gen_rng.below(2));
    r.want_src = gen_rng.below(4) == 0 ? mpi::kAnySource
                                       : static_cast<int>(gen_rng.below(4));
    r.want_tag =
        gen_rng.below(4) == 0 ? mpi::kAnyTag : static_cast<int>(gen_rng.below(3));
    r.bytes = 64;
    r.seq = ++next_seq;
    recvs.push_back(r);
  }

  auto run_in_order = [&](const std::vector<bcsmpi::SendDescriptor>& ss,
                          const std::vector<bcsmpi::RecvDescriptor>& rs) {
    bcsmpi::SendMatchIndex send_index;
    bcsmpi::RecvMatchIndex recv_index;
    for (const auto& s : ss) send_index.insert(s);
    for (const auto& r : rs) recv_index.insert(r);
    return matcher_ref::indexed(recv_index, send_index);
  };

  const auto baseline_log = run_in_order(sends, recvs);
  ASSERT_FALSE(baseline_log.empty());

  // Per-test-param seed drives the permutations; every arrival order must
  // reproduce the baseline log byte for byte.
  sim::Rng perm_rng(GetParam());
  for (int trial = 0; trial < 8; ++trial) {
    auto ps = sends;
    auto pr = recvs;
    for (std::size_t i = ps.size(); i > 1; --i) {
      std::swap(ps[i - 1], ps[perm_rng.below(i)]);
    }
    for (std::size_t i = pr.size(); i > 1; --i) {
      std::swap(pr[i - 1], pr[perm_rng.below(i)]);
    }
    EXPECT_EQ(run_in_order(ps, pr), baseline_log)
        << "seed " << GetParam() << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherPermutation,
                         ::testing::Values(2u, 17u, 404u, 90210u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---- randomized message soup, both implementations ----

// Param: (implementation, seed, drop rate in basis points).  Nonzero drop
// rates exercise the retransmission path: descriptors and chunks are lost on
// the wire yet every byte must still arrive intact.  The baseline's traffic
// is not marked droppable (its model is a lossless network), so drops only
// bite the BCS-MPI runs.
class MessageSoup
    : public ::testing::TestWithParam<std::tuple<bool, std::uint64_t, int>> {};

TEST_P(MessageSoup, EveryByteArrivesIntact) {
  const auto [use_bcs, seed, drop_bp] = GetParam();
  const int P = 4;
  net::ClusterConfig ccfg;
  ccfg.num_compute_nodes = P;
  ccfg.faults.dropRate(drop_bp / 10000.0);
  net::Cluster cluster(ccfg);
  std::vector<int> map(P);
  std::iota(map.begin(), map.end(), 0);

  // Deterministic plan shared by all ranks: `rounds` rounds; in each, every
  // rank sends one message of pseudo-random size to a pseudo-random peer.
  struct Msg {
    int from, to;
    std::size_t bytes;
  };
  sim::Rng plan_rng(seed);
  std::vector<std::vector<Msg>> plan;  // per round
  for (int round = 0; round < 5; ++round) {
    std::vector<Msg> msgs;
    for (int s = 0; s < P; ++s) {
      Msg m;
      m.from = s;
      m.to = static_cast<int>((s + 1 + plan_rng.below(P - 1)) % P);
      m.bytes = 1 + plan_rng.below(40000);
      msgs.push_back(m);
    }
    plan.push_back(msgs);
  }

  auto body = [&plan, P](mpi::Comm& comm) {
    const int me = comm.rank();
    for (std::size_t round = 0; round < plan.size(); ++round) {
      std::vector<mpi::Request> reqs;
      std::vector<std::vector<std::uint8_t>> outs, ins;
      std::vector<int> in_from;
      for (const auto& m : plan[round]) {
        if (m.to == me) {
          ins.emplace_back(m.bytes);
          in_from.push_back(m.from);
          reqs.push_back(comm.irecv(ins.back().data(), m.bytes, m.from,
                                    static_cast<int>(round)));
        }
      }
      for (const auto& m : plan[round]) {
        if (m.from == me) {
          outs.emplace_back(m.bytes);
          for (std::size_t i = 0; i < m.bytes; ++i) {
            outs.back()[i] =
                static_cast<std::uint8_t>((i * 7 + m.from + round) & 0xFF);
          }
          reqs.push_back(comm.isend(outs.back().data(), m.bytes, m.to,
                                    static_cast<int>(round)));
        }
      }
      comm.waitall(reqs);
      std::size_t idx = 0;
      for (const auto& m : plan[round]) {
        if (m.to != me) continue;
        const auto& buf = ins[idx];
        const int from = in_from[idx];
        ++idx;
        for (std::size_t i = 0; i < buf.size(); i += 997) {
          ASSERT_EQ(buf[i],
                    static_cast<std::uint8_t>((i * 7 + from + round) & 0xFF))
              << "round " << round << " from " << from << " byte " << i;
        }
      }
    }
    (void)P;
  };

  if (use_bcs) {
    bcsmpi::BcsMpiConfig cfg;
    cfg.runtime_init_overhead = usec(50);
    bcsmpi::runJob(cluster, cfg, map, body);
  } else {
    baseline::BaselineConfig cfg;
    cfg.init_overhead = usec(10);
    baseline::runJob(cluster, cfg, map, body);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndImpls, MessageSoup,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(11u, 97u, 4242u, 80808u),
                       ::testing::Values(0, 500)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "bcsmpi" : "baseline") +
             "_seed" + std::to_string(std::get<1>(info.param)) + "_drop" +
             std::to_string(std::get<2>(info.param)) + "bp";
    });

// ---- self-scheduler chunk-index conservation ----

// Param: (seed, drop rate in basis points, imbalance ramp ×10).  The
// fetch-add self-scheduler (DESIGN.md §11) must hand out every loop chunk
// exactly once no matter how the network behaves: drops force fetch-add
// retransmissions, but the counter lives behind a single MSM apply point,
// so a retried claim is re-*delivered*, never re-*applied*.  Crash-free
// plans only — with the counter intact, conservation must be exact.
class SelfSchedConservation
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int, int>> {};

TEST_P(SelfSchedConservation, EveryChunkIsExecutedExactlyOnce) {
  const auto [seed, drop_bp, ramp_x10] = GetParam();
  const int P = 6;
  net::ClusterConfig ccfg;
  ccfg.num_compute_nodes = P;
  ccfg.seed = seed;
  ccfg.faults.dropRate(drop_bp / 10000.0);
  net::Cluster cluster(ccfg);
  std::vector<int> map(P);
  std::iota(map.begin(), map.end(), 0);

  apps::SelfSchedConfig scfg;
  scfg.chunks = 48;
  scfg.chunk_batch = 1 + static_cast<int>(seed % 3);
  scfg.base_cost = usec(70);
  scfg.cost_ramp = ramp_x10 / 10.0;

  std::vector<apps::SelfSchedResult> results(P);
  bcsmpi::BcsMpiConfig cfg;
  cfg.runtime_init_overhead = usec(50);
  bcsmpi::runJob(cluster, cfg, map, [&](mpi::Comm& comm) {
    results[static_cast<std::size_t>(comm.rank())] =
        apps::selfSchedule(comm, scfg);
  });

  std::vector<int> times_run(static_cast<std::size_t>(scfg.chunks), 0);
  for (const auto& res : results) {
    for (int c : res.chunks) {
      ASSERT_GE(c, 0);
      ASSERT_LT(c, scfg.chunks);
      ++times_run[static_cast<std::size_t>(c)];
    }
  }
  for (int c = 0; c < scfg.chunks; ++c) {
    EXPECT_EQ(times_run[static_cast<std::size_t>(c)], 1)
        << "chunk " << c << " (seed " << seed << ", drop " << drop_bp
        << "bp)";
  }
  // Every rank agreed on the same owner map.
  for (int r = 1; r < P; ++r) {
    EXPECT_EQ(results[static_cast<std::size_t>(r)].digest, results[0].digest);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndDrops, SelfSchedConservation,
    ::testing::Combine(::testing::Values(3u, 271u, 65537u),
                       ::testing::Values(0, 300, 800),
                       ::testing::Values(10, 40)),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_drop" +
             std::to_string(std::get<1>(info.param)) + "bp_ramp" +
             std::to_string(std::get<2>(info.param));
    });

// ---- serial engine firing order across drain-window boundaries ----

// The serial engine drains its pending set one 32 us window at a time
// (Engine::kSerialWindow): a sorted `near` vector for the open window, a
// `far` radix heap of power-of-two time blocks beyond it.  A seeded mix of
// at/after/cancel, atOn onto other shards and handoff — from outside events
// and from inside firing ones — interleaved with step() and run(until)
// stopping mid-window, must fire in the canonical order (when, shard,
// handoff band, insertion order).
// The reference is a std::multimap keyed by (when, shard, band): equal keys
// keep their insertion order, which is the per-shard sequence order.
class SerialEngineOrder : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  using Key = std::tuple<sim::SimTime, sim::ShardId, int>;
  using Ref = std::multimap<Key, int>;
  static constexpr sim::Duration kWindow = usec(32);
  static constexpr int kShards = 4;

  sim::Engine eng_;
  sim::Rng rng_{GetParam()};
  Ref ref_;                             ///< pending events, canonical order
  std::vector<Ref::iterator> where_;    ///< by id; ref_.end() once gone
  std::vector<sim::EventId> handles_;   ///< by id; invalid for handoffs
  std::uint64_t fired_ = 0;
  std::uint64_t cancelled_ = 0;
  int budget_ = 1500;                   ///< events left to schedule
  std::string divergence_;              ///< first order mismatch, if any

  /// A target time at, just inside, on or just past a window boundary, on
  /// a 4096 ns block edge, or anywhere up to a few windows or milliseconds
  /// out.
  sim::SimTime pickWhen() {
    const sim::SimTime now = eng_.now();
    const sim::SimTime edge =
        (now / kWindow + 1 + static_cast<sim::SimTime>(rng_.below(3))) *
        kWindow;
    switch (rng_.below(7)) {
      case 0: return now;
      case 1: return edge - 1;
      case 2: return edge;
      case 3: return edge + 1;
      case 4: return ((now >> 12) + 1) << 12;
      case 5: return now + static_cast<sim::SimTime>(rng_.below(4 * kWindow));
      default: return now + static_cast<sim::SimTime>(rng_.below(msec(2)));
    }
  }

  void schedule() {
    if (budget_ <= 0) return;
    --budget_;
    const int id = static_cast<int>(where_.size());
    auto cb = [this, id] { onFire(id); };
    const sim::SimTime when = pickWhen();
    const auto other = static_cast<sim::ShardId>(rng_.below(kShards));
    sim::ShardId shard = eng_.currentShard();
    int band = 0;
    sim::EventId h{};
    switch (rng_.below(4)) {
      case 0: h = eng_.at(when, cb); break;
      case 1: h = eng_.after(when - eng_.now(), cb); break;
      case 2: h = eng_.atOn(shard = other, when, cb); break;
      default:
        eng_.handoff(shard = other, when, cb);
        band = 1;
        break;
    }
    where_.push_back(ref_.emplace(Key{when, shard, band}, id));
    handles_.push_back(h);
  }

  void cancelOne() {
    if (handles_.empty()) return;
    const auto id = static_cast<std::size_t>(rng_.below(handles_.size()));
    const bool live = where_[id] != ref_.end() && handles_[id].valid();
    EXPECT_EQ(eng_.cancel(handles_[id]), live) << "event " << id;
    if (live) {
      ref_.erase(where_[id]);
      where_[id] = ref_.end();
      ++cancelled_;
    }
  }

  void act() {
    for (int n = static_cast<int>(rng_.below(3)); n > 0; --n) schedule();
    if (rng_.below(4) == 0) cancelOne();
  }

  void onFire(int id) {
    if (!divergence_.empty()) return;  // report the first mismatch only
    const auto top = ref_.begin();
    if (top == ref_.end() || top->second != id ||
        eng_.now() != std::get<0>(top->first) ||
        eng_.currentShard() != std::get<1>(top->first)) {
      const std::string expected =
          top == ref_.end() ? "none" : "event " + std::to_string(top->second);
      divergence_ = "event " + std::to_string(id) + " fired at " +
                    sim::formatTime(eng_.now()) + "; expected " + expected;
      return;
    }
    ref_.erase(top);
    where_[static_cast<std::size_t>(id)] = ref_.end();
    ++fired_;
    act();
  }

  void expectCounters() {
    EXPECT_EQ(eng_.pendingEvents(), ref_.size());
    EXPECT_EQ(eng_.executedEvents(), fired_);
    EXPECT_EQ(eng_.cancelledEvents(), cancelled_);
  }
};

TEST_P(SerialEngineOrder, FiresInCanonicalOrderAcrossWindows) {
  for (int round = 0; round < 200 && divergence_.empty(); ++round) {
    switch (rng_.below(4)) {
      case 0:
        act();
        break;
      case 1:
        EXPECT_EQ(eng_.step(), !ref_.empty());
        break;
      case 2: {
        // Stop somewhere inside a window a few windows out.
        const sim::SimTime until =
            (eng_.now() / kWindow + static_cast<sim::SimTime>(rng_.below(3))) *
                kWindow +
            static_cast<sim::SimTime>(rng_.below(kWindow));
        if (until < eng_.now()) break;
        EXPECT_EQ(eng_.run(until), until);
        EXPECT_TRUE(ref_.empty() || std::get<0>(ref_.begin()->first) > until);
        break;
      }
      default:
        cancelOne();
        break;
    }
    expectCounters();
  }
  eng_.run();
  EXPECT_EQ(divergence_, "");
  EXPECT_TRUE(ref_.empty());
  expectCounters();
  EXPECT_GT(fired_, 100u);
  EXPECT_GT(cancelled_, 10u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerialEngineOrder,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u, 2024u, 31337u,
                                           65537u));

}  // namespace

#include "snapshot/scenario.hpp"

#include <numeric>

namespace bcs::snapshot {

namespace {

std::vector<int> oneRankPerNode(int n) {
  std::vector<int> map(static_cast<std::size_t>(n));
  std::iota(map.begin(), map.end(), 0);
  return map;
}

}  // namespace

ScenarioSpec ckptRing(bool verify) {
  ScenarioSpec s;
  s.cluster.num_compute_nodes = 8;
  s.cluster.seed = 20260809;
  s.mpi.runtime_init_overhead = sim::usec(200);
  s.mpi.verify = verify;
  s.ring.ranks = 8;
  s.ring.node_of_rank = oneRankPerNode(8);
  s.ring.rounds = 12;
  s.ring.bytes = 512;
  return s;
}

ScenarioSpec ckptSoup(bool verify) {
  ScenarioSpec s;
  s.cluster.num_compute_nodes = 32;
  s.cluster.seed = 20260805;
  s.cluster.faults.dropRate(0.05).crashNode(13, sim::msec(6));
  s.mpi.runtime_init_overhead = sim::usec(200);
  s.mpi.verify = verify;
  s.storm.heartbeat_period = sim::usec(500);
  s.ring.ranks = 32;
  s.ring.node_of_rank = oneRankPerNode(32);
  s.ring.rounds = 40;
  s.ring.bytes = 256;
  s.with_storm = true;
  s.wire_fault_handlers = true;
  return s;
}

ScenarioSpec ckptTree(bool verify) {
  ScenarioSpec s;
  s.cluster.num_compute_nodes = 32;
  s.cluster.seed = 20260811;
  s.mpi.runtime_init_overhead = sim::usec(200);
  s.mpi.tree_fanout = 8;
  s.mpi.verify = verify;
  s.ring.ranks = 32;
  s.ring.node_of_rank = oneRankPerNode(32);
  s.ring.rounds = 10;
  s.ring.bytes = 256;
  return s;
}

std::string traceCkptResume() {
  ScenarioSpec spec = ckptRing(/*verify=*/true);
  spec.mpi.checkpoint_every_slices = 4;

  // The interrupted run: periodic snapshots, killed mid-flight at 3 ms
  // (after the slice-4 boundary capture at 2.2 ms).
  Simulation b = build(spec);
  std::vector<std::uint8_t> blob;
  b.runtime->setSnapshotSink(
      [&b, &blob](std::uint64_t) { blob = capture(b); });
  b.cluster->run(sim::msec(3));
  const std::uint64_t prefix = traceRecordsAt(blob);

  // Resume in a fresh stack and run to completion; splice the continuation
  // after the capture-time prefix.
  Simulation c = restore(spec, blob);
  c.cluster->run();
  return b.cluster->trace().dump(static_cast<std::size_t>(prefix)) +
         c.cluster->trace().dump();
}

}  // namespace bcs::snapshot

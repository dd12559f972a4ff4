// The paper's closing argument (§6): "a scheduled, deterministic
// communication behavior at system level could provide a solid
// infrastructure for implementing transparent fault tolerance."
//
// This example runs that argument end to end with src/snapshot:
//
//   1. Periodic coordinated checkpoints: every slice boundary is a globally
//      consistent state by construction, so the runtime's periodic hook
//      (BcsMpiConfig::checkpoint_every_slices) just serializes the whole
//      machine — no marker algorithm, no message draining.
//   2. Crash and restore: the run is killed mid-flight; a *fresh* stack is
//      restored from the last snapshot and continues byte-identically
//      (the spliced trace equals the uninterrupted run's).
//   3. Branching what-if replay: the same snapshot is forked a second time
//      with the node crash edited out of the FaultPlan, showing what the
//      machine would have done had the node survived.
//
//   $ ./examples/checkpoint_fault_tolerance
//   (inspect the snapshot it leaves behind with
//    tools/snapshot_inspect.py checkpoint_fault_tolerance.bcss)

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/scenario.hpp"

int main() {
  using namespace bcs;
  using snapshot::ScenarioSpec;
  using snapshot::Simulation;

  // The 32-node fault soup: 5% packet loss, STORM heartbeats wired into the
  // runtime's recovery machinery, and node 13 crashing at 6 ms.
  ScenarioSpec spec = snapshot::ckptSoup(/*verify=*/true);
  spec.mpi.checkpoint_every_slices = 8;  // a snapshot every 4 ms of simtime
  const sim::SimTime horizon = sim::msec(30);

  // --- Reference: the uninterrupted run ----------------------------------
  Simulation reference = snapshot::build(spec);
  reference.cluster->run(horizon);
  const std::string reference_trace = reference.cluster->trace().dump();

  // --- Checkpointed run, killed mid-flight -------------------------------
  Simulation live = snapshot::build(spec);
  std::vector<std::uint8_t> blob;        // most recent snapshot
  std::vector<std::uint8_t> pre_crash;   // first snapshot (4.2 ms < 6 ms)
  std::uint64_t blob_slice = 0;
  live.runtime->setSnapshotSink([&live, &blob, &pre_crash, &blob_slice](
                                    std::uint64_t slice) {
    blob = snapshot::capture(live);
    if (pre_crash.empty()) pre_crash = blob;
    blob_slice = slice;
    std::printf("checkpoint at slice %4llu (%s): %zu bytes\n",
                static_cast<unsigned long long>(slice),
                sim::formatTime(live.cluster->engine().now()).c_str(),
                blob.size());
  });
  live.cluster->run(sim::msec(12));  // "crash": the process stops here
  std::printf("\nrun killed at 12 ms with %llu checkpoint(s) taken\n",
              static_cast<unsigned long long>(
                  live.runtime->stats().checkpoints_taken));

  {
    std::ofstream out("checkpoint_fault_tolerance.bcss",
                      std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
  }

  // --- Restore into a fresh stack and continue ---------------------------
  Simulation resumed = snapshot::restore(spec, blob);
  resumed.cluster->run(horizon);
  const std::uint64_t prefix = snapshot::traceRecordsAt(blob);
  const std::string spliced =
      live.cluster->trace().dump(static_cast<std::size_t>(prefix)) +
      resumed.cluster->trace().dump();
  std::printf("restored from slice %llu into a fresh process: spliced trace "
              "%s the uninterrupted run's (%zu bytes)\n",
              static_cast<unsigned long long>(blob_slice),
              spliced == reference_trace ? "MATCHES" : "DIFFERS FROM",
              reference_trace.size());
  std::printf("  evictions %llu, rejoins %llu, requests failed %llu "
              "(node 13's crash rides through the restore)\n",
              static_cast<unsigned long long>(
                  resumed.runtime->stats().evictions),
              static_cast<unsigned long long>(resumed.runtime->stats().rejoins),
              static_cast<unsigned long long>(
                  resumed.runtime->stats().requests_failed));

  // --- Branching what-if replay: pre-crash snapshot, crash edited out ----
  ScenarioSpec what_if = spec;
  what_if.cluster.faults = sim::FaultPlan{};
  what_if.cluster.faults.dropRate(0.05);  // keep the loss, drop the crash
  Simulation branch = snapshot::restore(what_if, pre_crash);
  branch.cluster->run(horizon);
  std::printf("\nwhat-if branch (pre-crash snapshot, crash removed from the "
              "FaultPlan):\n");
  std::printf("  evictions %llu, requests failed %llu — the machine sails "
              "on; traces diverge only after the fork point\n",
              static_cast<unsigned long long>(
                  branch.runtime->stats().evictions),
              static_cast<unsigned long long>(
                  branch.runtime->stats().requests_failed));
  std::printf("  divergent futures from one consistent past: branch trace "
              "%zu bytes vs %zu with the crash\n",
              branch.cluster->trace().dump().size(),
              resumed.cluster->trace().dump().size());
  return spliced == reference_trace ? 0 : 1;
}

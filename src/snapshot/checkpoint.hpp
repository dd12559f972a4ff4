#pragma once

// Slice-boundary checkpoint/restore (the paper's §6 claim made concrete;
// DESIGN.md §8).
//
// At a slice boundary the global communication state is known by
// construction — every transfer of the previous slice has completed, no
// packet is in flight — so a full-state snapshot needs no marker algorithm
// or message draining: it is a pure serialization of engine clock and
// sequence counters, NIC queues, RNG streams and membership books.  capture() produces a versioned,
// checksummed blob (format.hpp); restore() rebuilds a *fresh* simulation
// from the same ScenarioSpec and the blob, and the continuation is
// byte-identical to the uninterrupted run (pinned against the golden-trace
// corpus by tests/test_snapshot.cpp).
//
// Branching what-if replay: restore() takes the spec by value, so a caller
// can fork one snapshot into several branches that differ only in their
// FaultPlan — the plan is deliberately excluded from the config fingerprint
// (so is NetworkParams) — and diff the divergent traces with bcs-verify on.

#include <cstdint>
#include <memory>
#include <vector>

#include "bcsmpi/config.hpp"
#include "bcsmpi/runtime.hpp"
#include "net/cluster.hpp"
#include "snapshot/buffers.hpp"
#include "snapshot/error.hpp"
#include "snapshot/workload.hpp"
#include "storm/storm.hpp"

namespace bcs::snapshot {

/// Everything needed to (re)build a checkpointable simulation.  Scalar
/// fields participate in the config fingerprint; ClusterConfig::faults and
/// NetworkParams do not (branch on them).
struct ScenarioSpec {
  net::ClusterConfig cluster;
  bcsmpi::BcsMpiConfig mpi;
  storm::StormConfig storm;
  RingSpec ring;
  bool with_storm = false;
  /// Wire STORM death/rejoin declarations to runtime eviction/reintegration
  /// and runtime failover to STORM's Machine Manager move.
  bool wire_fault_handlers = false;
  bool trace = true;
};

/// A built simulation: the cluster plus the full BCS stack on top of it.
/// Owns everything; destruction order (workload, storm, runtime, cluster)
/// is the reverse of construction.
struct Simulation {
  ScenarioSpec spec;
  std::unique_ptr<net::Cluster> cluster;
  std::unique_ptr<bcsmpi::Runtime> runtime;
  std::unique_ptr<storm::Storm> storm;  ///< null unless spec.with_storm
  std::unique_ptr<BufferRegistry> registry;
  std::unique_ptr<DetachedRing> workload;
  int job = -1;

  Simulation() = default;
  Simulation(Simulation&&) = default;
  Simulation& operator=(Simulation&&) = default;
  ~Simulation() {
    // Members destroy in reverse declaration order, which is already
    // workload → registry → storm → runtime → cluster.
  }
};

/// FNV-1a over the scenario's scalar configuration.  Restoring a snapshot
/// into a machine with a different shape is refused via this fingerprint;
/// FaultPlan and NetworkParams are excluded so what-if branches and timing
/// studies can reuse one snapshot.
std::uint64_t fingerprintConfig(const ScenarioSpec& spec);

/// Builds and *starts* the scenario: ranks registered, first workload ticks
/// armed, heartbeats running.  Call cluster->run() after.
Simulation build(const ScenarioSpec& spec);

/// Serializes the full simulator state.  Only valid at a slice boundary —
/// install it via Runtime::setSnapshotSink (with
/// BcsMpiConfig::checkpoint_every_slices) or call from a
/// requestCheckpoint callback.  Pure observation: a run that captures
/// traces byte-identically to one that does not.  Throws SnapshotError
/// ("capture", …) when the state holds anything unserializable (live
/// fibers, an election in flight, active collectives, queued event
/// waiters).
std::vector<std::uint8_t> capture(Simulation& sim);

/// Rebuilds a fresh simulation from `spec` and a blob produced by
/// capture().  The spec must fingerprint-match the blob except for
/// FaultPlan/NetworkParams.  Call cluster->run() on the result to continue
/// the interrupted run; the trace starts empty (splice it after the
/// captured run's prefix to compare with an uninterrupted run).
Simulation restore(const ScenarioSpec& spec,
                   const std::vector<std::uint8_t>& blob);

/// Convenience for drills: the number of trace records the cluster held
/// when `blob` was captured (splice point for prefix + continuation ==
/// uninterrupted comparisons: Trace::dump(n) renders that prefix).
std::uint64_t traceRecordsAt(const std::vector<std::uint8_t>& blob);

}  // namespace bcs::snapshot

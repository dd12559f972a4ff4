// Protocol microbenchmarks (paper §3.1, §3.2, §4.3, §4.4):
//   * blocking point-to-point delay distribution (expected ~1.5 slices avg)
//   * non-blocking wait cost under full overlap (expected ~0)
//   * DEM+MSM duration (expected ~125 us)
//   * NIC (softfloat) reduce vs host reduce latency vs element count

#include <cstdio>
#include <string_view>
#include <vector>

#include "bench/common.hpp"
#include "sim/stats.hpp"

namespace {

using namespace bcs;
using namespace bcs::bench;
using sim::msec;
using sim::usec;

void blockingDelay(const HarnessConfig& h) {
  banner("Blocking send/recv delay (paper 3.1: expect ~1.5 time slices avg)");
  std::printf("%-14s %-12s %-12s %-12s\n", "slice (us)", "mean (us)",
              "min (us)", "max (us)");
  for (double slice_us : {250.0, 500.0, 1000.0}) {
    HarnessConfig hh = h;
    hh.bcs.time_slice = usec(slice_us);
    sim::Accumulator acc;
    runBcs(hh, 2, [&](mpi::Comm& comm) {
      char c = 0;
      for (int i = 0; i < 60; ++i) {
        // Sample many phases of the slice grid (co-prime stride).
        comm.compute(usec(118 + 61 * (i % 23)));
        if (comm.rank() == 0) {
          const sim::SimTime t0 = comm.now();
          comm.send(&c, 1, 1, 0);
          acc.add(sim::toUsec(comm.now() - t0));
        } else {
          comm.recv(&c, 1, 0, 0);
        }
      }
    });
    std::printf("%-14.0f %-12.1f %-12.1f %-12.1f   (= %.2f slices avg)\n",
                slice_us, acc.mean(), acc.min(), acc.max(),
                acc.mean() / slice_us);
  }
}

void nonBlockingOverlap(const HarnessConfig& h) {
  banner("Non-blocking overlap (paper 3.2: wait cost ~0 when overlapped)");
  std::printf("%-16s %-18s %-18s\n", "compute (ms)", "wait cost (us)",
              "fully overlapped");
  for (double compute_ms : {0.25, 0.5, 1.0, 2.0, 5.0}) {
    sim::Accumulator acc;
    runBcs(h, 2, [&](mpi::Comm& comm) {
      std::vector<char> out(4096, 'x'), in(4096);
      const int peer = 1 - comm.rank();
      for (int i = 0; i < 20; ++i) {
        std::vector<mpi::Request> reqs;
        reqs.push_back(comm.irecv(in.data(), in.size(), peer, i));
        reqs.push_back(comm.isend(out.data(), out.size(), peer, i));
        comm.compute(msec(compute_ms));
        const sim::SimTime t0 = comm.now();
        comm.waitall(reqs);
        if (comm.rank() == 0) acc.add(sim::toUsec(comm.now() - t0));
      }
    });
    std::printf("%-16.2f %-18.1f %-18s\n", compute_ms, acc.mean(),
                acc.mean() < 5.0 ? "yes" : "no");
  }
}

void demMsmBudget(const HarnessConfig& h) {
  banner("Microphase schedule (paper 4.3: DEM+MSM ~= 125 us)");
  net::Cluster cluster(clusterConfig(h, 8));
  cluster.trace().enable();
  const auto map =
      baseline::blockMapping(8, cluster.numComputeNodes(), h.procs_per_node);
  bcsmpi::runJob(cluster, h.bcs, map, [&](mpi::Comm& comm) {
    char c = 0;
    const int peer = comm.rank() ^ 1;
    for (int i = 0; i < 5; ++i) {
      if (comm.rank() % 2 == 0) {
        comm.send(&c, 1, peer, 0);
      } else {
        comm.recv(&c, 1, peer, 0);
      }
    }
  });
  // Average DEM->P2P strobe spacing over all slices.
  sim::Accumulator acc;
  sim::SimTime dem_at = -1;
  for (const auto& r : cluster.trace().records()) {
    if (r.kind != &bcsmpi::trace::kMicrostrobe) continue;
    const std::string_view phase = r.name;
    if (phase == bcsmpi::phaseName(bcsmpi::Phase::kDem)) dem_at = r.time;
    if (phase == bcsmpi::phaseName(bcsmpi::Phase::kP2p) && dem_at >= 0) {
      acc.add(sim::toUsec(r.time - dem_at));
      dem_at = -1;
    }
  }
  std::printf("DEM+MSM duration: mean %.1f us (min %.1f, max %.1f) over %llu slices\n",
              acc.mean(), acc.min(), acc.max(),
              static_cast<unsigned long long>(acc.count()));
}

void nicReduce(const HarnessConfig& h) {
  banner("Reduce latency: NIC softfloat RH vs host tree (paper 4.4)");
  std::printf("%-12s %-22s %-22s\n", "elements", "BCS-MPI NIC reduce (us)",
              "baseline host reduce (us)");
  for (std::size_t count : {1u, 8u, 64u, 256u, 1024u}) {
    sim::Accumulator nic, host;
    auto app = [&](mpi::Comm& comm, sim::Accumulator& acc) {
      std::vector<double> in(count, comm.rank() + 0.25), out(count);
      for (int i = 0; i < 10; ++i) {
        const sim::SimTime t0 = comm.now();
        comm.allreduce(in.data(), out.data(), count, mpi::Datatype::kFloat64,
                       mpi::ReduceOp::kSum);
        if (comm.rank() == 0) acc.add(sim::toUsec(comm.now() - t0));
      }
    };
    runBcs(h, 16, [&](mpi::Comm& c) { app(c, nic); });
    runBaseline(h, 16, [&](mpi::Comm& c) { app(c, host); });
    std::printf("%-12zu %-22.1f %-22.1f\n", count, nic.mean(), host.mean());
  }
  std::printf(
      "(BCS-MPI reduce latency is dominated by the slice grid; the NIC\n"
      " computation itself stays off the host CPUs and overlaps compute.)\n");
}

}  // namespace

int main() {
  HarnessConfig h;
  h.baseline.init_overhead = usec(100);
  h.bcs.runtime_init_overhead = usec(100);
  blockingDelay(h);
  nonBlockingOverlap(h);
  demMsmBudget(h);
  nicReduce(h);
  return 0;
}

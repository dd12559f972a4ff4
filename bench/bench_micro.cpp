// Google-benchmark microbenchmarks of the simulator substrate itself:
// event-engine throughput, fiber context switches, softfloat arithmetic,
// fabric operations, descriptor matching and the snapshot codec.  These
// guard the wall-clock cost of the reproduction experiments.

#include <benchmark/benchmark.h>

#include <numeric>
#include <string>
#include <vector>

#include "bcs/core.hpp"
#include "codec/lzss.hpp"
#include "net/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/fiber.hpp"
#include "sim/rng.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/format.hpp"
#include "softfloat/softfloat.hpp"

namespace {

using namespace bcs;

void BM_EngineScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    int sink = 0;
    for (int i = 0; i < 1000; ++i) {
      eng.at(i, [&sink] { ++sink; });
    }
    eng.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineScheduleRun);

void BM_FiberSwitch(benchmark::State& state) {
  sim::Fiber* self = nullptr;
  sim::Fiber fiber([&] {
    while (true) self->yield();
  });
  self = &fiber;
  for (auto _ : state) {
    fiber.resume();
  }
}
BENCHMARK(BM_FiberSwitch);

void BM_SoftFloatAdd64(benchmark::State& state) {
  sim::Rng rng(42);
  std::vector<std::uint64_t> a(1024), b(1024);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng();
    b[i] = rng();
  }
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      acc ^= sf::f64_add(a[i], b[i]);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_SoftFloatAdd64);

void BM_SoftFloatMul32(benchmark::State& state) {
  sim::Rng rng(43);
  std::vector<std::uint32_t> a(1024), b(1024);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<std::uint32_t>(rng());
    b[i] = static_cast<std::uint32_t>(rng());
  }
  for (auto _ : state) {
    std::uint32_t acc = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      acc ^= sf::f32_mul(a[i], b[i]);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_SoftFloatMul32);

void BM_FabricUnicasts(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    net::Fabric fabric(eng, net::NetworkParams::qsnet(), 32);
    int delivered = 0;
    for (int i = 0; i < 256; ++i) {
      fabric.unicast(i % 16, 16 + i % 16, 4096, [&delivered] { ++delivered; });
    }
    eng.run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_FabricUnicasts);

void BM_HardwareMulticast(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    net::Fabric fabric(eng, net::NetworkParams::qsnet(), n + 1);
    std::vector<int> dests;
    for (int i = 0; i < n; ++i) dests.push_back(i);
    bool done = false;
    fabric.multicast(n, dests, 4096, {}, [&done] { done = true; });
    eng.run();
    benchmark::DoNotOptimize(done);
  }
}
BENCHMARK(BM_HardwareMulticast)->Arg(16)->Arg(64)->Arg(256);

void BM_CompareAndWrite(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    net::Fabric fabric(eng, net::NetworkParams::qsnet(), 33);
    core::BcsCore core(fabric);
    const auto var = core.allocVar("v", 7);
    std::vector<int> nodes;
    for (int i = 0; i < 32; ++i) nodes.push_back(i);
    bool out = false;
    core::CompareAndWriteRequest req;
    req.src_node = 32;
    req.nodes = nodes;
    req.var = var;
    req.op = core::CmpOp::kGE;
    req.value = 7;
    core.compareAndWriteAsync(std::move(req), [&out](bool ok) { out = ok; });
    eng.run();
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_CompareAndWrite);

/// Raw sections of the first periodic capture of a 512-node detached ring
/// (one rank per node, 512-byte messages, a capture every 16 slices): the
/// input the snapshot codec sees at every capture.  Built once.
const std::vector<std::string>& ringSnapshotSections() {
  static const std::vector<std::string> sections = [] {
    snapshot::ScenarioSpec spec;
    const int n = 512;
    spec.cluster.num_compute_nodes = n;
    spec.mpi.runtime_init_overhead = sim::usec(200);
    spec.mpi.checkpoint_every_slices = 16;
    spec.ring.ranks = n;
    spec.ring.node_of_rank.resize(static_cast<std::size_t>(n));
    std::iota(spec.ring.node_of_rank.begin(), spec.ring.node_of_rank.end(),
              0);
    spec.ring.rounds = 30;
    spec.ring.bytes = 512;
    spec.trace = false;
    snapshot::Simulation sim = snapshot::build(spec);
    std::vector<std::uint8_t> blob;
    sim.runtime->setSnapshotSink([&sim, &blob](std::uint64_t) {
      if (blob.empty()) blob = snapshot::capture(sim);
    });
    sim.cluster->run(sim::msec(10));
    const snapshot::SnapshotReader reader(blob);
    std::vector<std::string> out;
    for (const snapshot::SectionInfo& info : reader.sections()) {
      out.push_back(reader.section(info.name));
    }
    return out;
  }();
  return sections;
}

std::int64_t totalBytes(const std::vector<std::string>& sections) {
  std::int64_t n = 0;
  for (const std::string& s : sections) n += static_cast<std::int64_t>(s.size());
  return n;
}

void BM_LzssCompress(benchmark::State& state) {
  const std::vector<std::string>& sections = ringSnapshotSections();
  for (auto _ : state) {
    for (const std::string& raw : sections) {
      std::vector<std::uint8_t> blob = codec::compress(raw);
      benchmark::DoNotOptimize(blob.data());
      benchmark::ClobberMemory();
    }
  }
  state.SetBytesProcessed(state.iterations() * totalBytes(sections));
}
BENCHMARK(BM_LzssCompress)->Unit(benchmark::kMillisecond);

void BM_LzssDecompress(benchmark::State& state) {
  const std::vector<std::string>& sections = ringSnapshotSections();
  std::vector<std::vector<std::uint8_t>> blobs;
  for (const std::string& raw : sections) {
    blobs.push_back(codec::compress(raw));
  }
  for (auto _ : state) {
    for (const std::vector<std::uint8_t>& blob : blobs) {
      std::string raw = codec::decompress(blob);
      benchmark::DoNotOptimize(raw.data());
      benchmark::ClobberMemory();
    }
  }
  state.SetBytesProcessed(state.iterations() * totalBytes(sections));
}
BENCHMARK(BM_LzssDecompress)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

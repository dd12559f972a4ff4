// The benchmark's three workloads.  Each drives the simulator's public API
// from outside and records spans only around the calls it makes:
//
//   sweep3d    SWEEP3D, blocking send/recv (paper Fig. 11a), 62 ranks on 31
//              dual-CPU nodes, on BCS-MPI then on the baseline MPI.  Nearly
//              every call parks a fiber until the next slice: fiber handoff
//              and the per-call runtime path dominate host time.
//   nas_is     NAS IS (Fig. 9), 64 ranks on 32 nodes, on BCS-MPI then on the
//              baseline.  A 64x63 all-to-all of 32 KB messages plus an
//              allreduce per iteration: matching, chunking, payload movement
//              and slice overruns, the data path sweep3d bypasses.
//   ring_ckpt  The detached 512-node flat ring (snapshot::build), captured
//              periodically through Runtime::setSnapshotSink, run again
//              without captures as the reference, and restored from a
//              mid-run capture and continued.  No fibers: the control plane,
//              runtime handlers and engine do the work, and capture reads
//              the same state the run writes.  The traced run also runs the
//              reference ring on the parallel engine, for its layer metrics.
//
// Host placement: the three workloads are logically single-threaded --
// exactly one of {engine, some fiber} runs at any instant, fibers being OS
// threads passed a baton -- so the process is confined to one CPU, where no
// handoff has to wake a thread on another core.

#include <sched.h>
#include <sys/resource.h>

#include <functional>
#include <memory>
#include <numeric>
#include <queue>
#include <thread>

#include "apps/nas.hpp"
#include "apps/wavefront.hpp"
#include "baseline/baseline.hpp"
#include "bcsmpi/comm.hpp"
#include "bench.hpp"
#include "net/cluster.hpp"
#include "sim/rng.hpp"
#include "snapshot/checkpoint.hpp"
#include "traced_comm.hpp"

namespace perfbench {
namespace {

using namespace bcs;

// ---------------------------------------------------------------------------
// Host placement and the repetition loop
// ---------------------------------------------------------------------------

std::vector<int> allowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Confines the calling thread, and every thread it creates later, to
/// `cpus`.  Returns false if the kernel refused.
bool confineTo(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

std::string jsonInts(const std::vector<int>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) s += ',';
    s += std::to_string(v[i]);
  }
  s += ']';
  return s;
}

double yardstickSeconds(double scale = 1.0);

/// Where a workload runs on the host.  Logically single-threaded work runs
/// on one CPU at a time.  On a shared host each CPU goes through its own
/// multi-second phases of interference at up to half speed, so before each
/// repetition a short probe times every allowed CPU and the repetition runs
/// on the fastest one.
class Placement {
 public:
  Placement(const Options& opt, Report& report, int workers)
      : allowed_(allowedCpus()), report_(report) {
    report.context("cpus", jsonInts(allowed_));
    report.context("hardware_concurrency",
                   std::to_string(std::thread::hardware_concurrency()));
    report.context("workers", std::to_string(workers));
    report.context("build_type",
                   std::string("\"") + PERFBENCH_BUILD_TYPE + "\"");
    report.context("seed", std::to_string(opt.seed));
    report.context("smoke", opt.smoke ? "true" : "false");
  }
  const std::vector<int>& allowed() const { return allowed_; }

  /// Confines the process to the allowed CPU that runs a short probe
  /// fastest right now.
  void confineToFastest() {
    int best = -1;
    double best_s = 0;
    for (const int cpu : allowed_) {
      if (!confineTo({cpu})) continue;
      const double s = yardstickSeconds(kProbeScale);
      if (best < 0 || s < best_s) {
        best = cpu;
        best_s = s;
      }
    }
    if ((best < 0 || !confineTo({best})) && !warned_) {
      report_.note("could not confine the process to one CPU");
      warned_ = true;
    }
  }
  /// Gives the process every allowed CPU again (for the worker pool).
  void release() {
    if (!allowed_.empty()) confineTo(allowed_);
  }

 private:
  static constexpr double kProbeScale = 0.1;  // a tenth of a yardstick
  const std::vector<int> allowed_;
  Report& report_;
  bool warned_ = false;
};

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Repetitions: the first is a warm-up (checked, not timed), then as many
/// as fit in the run's seconds, at least `min_timed`.  A hard cap keeps
/// the process well inside its time limit when one repetition is slow.
class RepLoop {
 public:
  RepLoop(const Options& opt, int min_timed)
      : opt_(opt), min_timed_(opt.smoke ? 1 : min_timed) {}
  bool more() {
    const double elapsed = secondsSince(t0_);
    if (started_ > 0 && elapsed > kHardCapS) return false;
    // Smoke: the warm-up, then one timed repetition of each kind.
    if (opt_.smoke) return started_ < (opt_.trace ? 3 : 2);
    return started_ < 1 + min_timed_ || elapsed < opt_.seconds;
  }
  /// Call once per repetition; false for the warm-up.
  bool next() { return started_++ > 0; }
  int timed() const { return started_ > 0 ? started_ - 1 : 0; }

 private:
  static constexpr double kHardCapS = 120;
  const Options& opt_;
  const int min_timed_;
  int started_ = 0;
  std::int64_t t0_ = hostNs();
};

/// The same-run yardstick: a fixed amount of host work in two parts shaped
/// like a simulator's -- an event loop (a binary heap of timed entries,
/// popped and re-pushed at pseudo-random offsets) and allocation churn
/// (blocks of 16-615 bytes replaced at random among 8192 slots), both from
/// fixed seeds.  Timed just before and just after each run, on the same
/// CPU, it measures how fast the host ran.  On a shared host the speed
/// swings by up to 2x with the neighbours' load, and host times divided by
/// the yardstick (`*_rel`, `setup_s`) cancel most of that.  The heap alone
/// fits in a core's own cache and slowed less than the workloads when the
/// host was loaded; the churn part tracks them more closely.
volatile std::uint64_t yardstick_sink = 0;  // keeps the loops from being elided

double yardstickSeconds(double scale) {
  constexpr int kHeapPops = 150000;
  constexpr int kChurnOps = 1200000;
  constexpr std::size_t kSlots = 8192;
  using Entry = std::pair<std::int64_t, std::uint32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> q;
  std::vector<std::unique_ptr<char[]>> slots(kSlots);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const std::int64_t t0 = hostNs();
  for (std::uint32_t i = 0; i < 65536; ++i) {
    q.emplace(static_cast<std::int64_t>(next() % 100000), i);
  }
  std::uint64_t sum = 0;
  const int pops = static_cast<int>(kHeapPops * scale);
  for (int n = 0; n < pops; ++n) {
    const Entry e = q.top();
    q.pop();
    sum += e.second;
    q.emplace(e.first + static_cast<std::int64_t>(next() % 100000), e.second);
  }
  const int ops = static_cast<int>(kChurnOps * scale);
  for (int n = 0; n < ops; ++n) {
    const std::uint64_t r = next();
    const std::size_t size = 16 + r % 600;
    std::unique_ptr<char[]>& slot = slots[(r >> 32) % kSlots];
    slot.reset(new char[size]);
    slot[0] = static_cast<char>(n);
    slot[size - 1] = static_cast<char>(r);
    sum += static_cast<unsigned char>(slots[r % kSlots] ? slots[r % kSlots][0] : 0);
  }
  const double secs = secondsSince(t0);
  yardstick_sink = sum;
  return secs;
}

/// setup_s is set-up time scaled to a host on which the yardstick takes
/// this long: set-up is short and, in raw seconds, moved by up to 2x
/// between sets of runs with the host's load.
constexpr double kReferenceYardstickS = 0.05;

/// The simulated results of the first repetition; every later repetition,
/// traced or not, must reproduce them exactly.
struct SimFingerprint {
  bool set = false;
  std::vector<std::uint64_t> values;
  void check(Report& report, const std::vector<std::uint64_t>& v,
             const std::string& what) {
    if (!set) {
      values = v;
      set = true;
      return;
    }
    std::string got, want;
    for (std::size_t i = 0; i < v.size(); ++i) {
      got += ' ' + std::to_string(v[i]);
      want += ' ' + std::to_string(i < values.size() ? values[i] : 0);
    }
    report.check(v == values, what + ": simulated results differ between "
                                     "repetitions (got" + got + ", first" +
                                     want + ")");
  }
};

// ---------------------------------------------------------------------------
// sweep3d and nas_is: fiber applications on BCS-MPI and on the baseline
// ---------------------------------------------------------------------------

struct AppCase {
  int nprocs = 0;
  bcsmpi::BcsMpiConfig bcs;
  baseline::BaselineConfig base;
  std::function<double(mpi::Comm&)> app;
};

/// The op kinds the two applications call, reported per kind.
const std::vector<std::string> kMpiOps = {"send",  "recv",    "isend",
                                          "irecv", "waitall", "allreduce"};

constexpr int kProcsPerNode = 2;  // crescendo nodes are dual-CPU

AppCase sweep3dCase(bool smoke) {
  AppCase c;
  c.nprocs = smoke ? 16 : 62;
  apps::Sweep3dConfig cfg;
  cfg.blocking = true;
  cfg.time_steps = smoke ? 1 : 2;
  // As in bench_fig11: the one-time bring-up is excluded from SWEEP3D.
  c.bcs.runtime_init_overhead = sim::usec(100);
  c.base.init_overhead = sim::usec(100);
  c.app = [cfg](mpi::Comm& comm) { return apps::sweep3d(comm, cfg); };
  return c;
}

AppCase nasIsCase(bool smoke) {
  AppCase c;
  c.nprocs = smoke ? 16 : 64;
  apps::IsConfig cfg;
  cfg.iterations = smoke ? 2 : 3;
  // As in bench_fig9: the BCS-MPI bring-up IS pays on a short run.
  c.bcs.runtime_init_overhead = sim::msec(1100);
  c.base.init_overhead = sim::msec(30);
  c.app = [cfg](mpi::Comm& comm) { return apps::nasIS(comm, cfg); };
  return c;
}

net::ClusterConfig clusterFor(int nprocs, std::uint64_t seed) {
  net::ClusterConfig cc;
  cc.num_compute_nodes = (nprocs + kProcsPerNode - 1) / kProcsPerNode;
  cc.seed = seed;
  return cc;
}

/// Host-time breakdown of a run stepped one time slice at a time.
struct SliceSteps {
  Samples host_us;
  std::uint64_t steps_with_slice = 0;  ///< steps in which a slice began
  std::uint64_t busy = 0;  ///< of those, steps that moved a descriptor/chunk
};

/// Steps `cluster.run(until)` over the strobe grid until the queue drains
/// or the step would pass `stop_before`.  Stepping only bounds each run()
/// call; it schedules nothing, so the simulation is the one an unbounded
/// run() executes.
void stepSlices(net::Cluster& cluster, const bcsmpi::Runtime& rt,
                Tracer& tracer, SliceSteps& out,
                sim::SimTime stop_before = INT64_MAX) {
  const sim::Duration slice = rt.config().time_slice;
  sim::SimTime until = rt.config().runtime_init_overhead % slice;
  while (cluster.engine().pendingEvents() > 0 && until < stop_before) {
    const bcsmpi::RuntimeStats before = rt.stats();
    const int span = tracer.open("slice");
    const std::int64_t h0 = hostNs();
    cluster.run(until);
    out.host_us.add(static_cast<double>(hostNs() - h0) * 1e-3);
    tracer.close(span);
    const bcsmpi::RuntimeStats& after = rt.stats();
    if (after.slices > before.slices) {
      ++out.steps_with_slice;
      if (after.descriptors_exchanged + after.chunks_transferred >
          before.descriptors_exchanged + before.chunks_transferred) {
        ++out.busy;
      }
    }
    until += slice;
  }
}

/// The public counters of one BCS-MPI run, read when it has ended.
struct RunCounters {
  std::uint64_t events = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t pool_slots = 0;
  bcsmpi::RuntimeStats rs;
  net::FabricStats fs;
  std::uint64_t requests_posted = 0;
  std::uint64_t requests_completed = 0;
};

RunCounters readCounters(net::Cluster& cluster, const bcsmpi::Runtime& rt) {
  RunCounters c;
  c.events = cluster.engine().executedEvents();
  c.cancelled = cluster.engine().cancelledEvents();
  c.pool_slots = cluster.engine().poolSlots();
  c.rs = rt.stats();
  c.fs = cluster.fabric().stats();
  for (const auto& job : rt.snapshot().jobs) {
    c.requests_posted += job.requests_posted;
    c.requests_completed += job.requests_completed;
  }
  return c;
}

/// Counts the run's requests as attempted operations and the ones that
/// failed or never completed as failed ones.
void checkRequests(Report& report, const RunCounters& c,
                   const std::string& who) {
  report.attempt(c.requests_posted);
  report.fail(c.requests_posted - c.requests_completed,
              who + " requests never completed");
  report.fail(c.rs.requests_failed, who + " requests failed");
}

/// The engine, runtime and fabric layers' per-layer metrics.
void reportCounters(Report& report, const RunCounters& c, double wall_median,
                    const SliceSteps& steps) {
  const auto count = [&report](const std::string& name, std::uint64_t v) {
    report.metric(name, static_cast<double>(v), "count");
  };
  count("engine.events", c.events);
  count("engine.cancelled", c.cancelled);
  count("engine.pool_slots", c.pool_slots);
  report.metric("engine.ns_per_event",
                wall_median * 1e9 / static_cast<double>(c.events), "ns");
  const bcsmpi::RuntimeStats& rs = c.rs;
  count("runtime.slices", rs.slices);
  count("runtime.microstrobes", rs.microstrobes);
  count("runtime.descriptors", rs.descriptors_exchanged);
  count("runtime.matches", rs.matches);
  count("runtime.chunks", rs.chunks_transferred);
  count("runtime.collectives", rs.collectives_scheduled);
  count("runtime.slice_overruns", rs.slice_overruns);
  count("runtime.retransmits", rs.retransmits);
  count("runtime.requests_failed", rs.requests_failed);
  report.metric("runtime.events_per_slice",
                static_cast<double>(c.events) /
                    static_cast<double>(std::max<std::uint64_t>(rs.slices, 1)),
                "count");
  report.metric("runtime.busy_slice_ratio",
                static_cast<double>(steps.busy) /
                    static_cast<double>(
                        std::max<std::uint64_t>(steps.steps_with_slice, 1)),
                "ratio");
  report.samples("runtime.slice_host_us", steps.host_us, "us");
  count("fabric.unicasts", c.fs.unicasts);
  count("fabric.multicasts", c.fs.multicasts);
  count("fabric.conditionals", c.fs.conditionals);
  report.metric("fabric.payload_bytes",
                static_cast<double>(c.fs.payload_bytes), "bytes");
  count("fabric.drops", c.fs.drops);
}

struct BcsRun {
  double setup_s = 0;
  double wall_s = 0;
  sim::SimTime makespan = 0;
  RunCounters counters;
  std::vector<double> sums;  ///< per-rank application checksums
  std::size_t unfinished = 0;
};

/// A cluster with the BCS-MPI runtime and the job launched on it, ready
/// for its first event.
struct BcsStack {
  std::unique_ptr<net::Cluster> cluster;
  // Declared after the cluster so it is destroyed first (the cluster
  // outlives the runtime, see Runtime::~Runtime).
  std::unique_ptr<bcsmpi::Runtime> rt;
};

BcsStack setUpBcs(const AppCase& ac, std::uint64_t seed,
                  const std::function<void(mpi::Comm&)>& body,
                  std::vector<sim::SimTime>* finish) {
  BcsStack s;
  s.cluster = std::make_unique<net::Cluster>(clusterFor(ac.nprocs, seed));
  s.rt = std::make_unique<bcsmpi::Runtime>(*s.cluster, ac.bcs);
  bcsmpi::launchJob(*s.rt,
                    baseline::blockMapping(ac.nprocs,
                                           s.cluster->numComputeNodes(),
                                           kProcsPerNode),
                    body, finish);
  return s;
}

/// Set-up is short next to a run, so each timed repetition also builds and
/// discards the workload kExtraSetups more times; setup_s is the median of
/// all of them.  Tear-down is not timed.
constexpr int kExtraSetups = 16;

/// `raw` gets the times in seconds, `scaled` the same times multiplied by
/// `scale` (kReferenceYardstickS over the repetition's yardstick).
template <typename Build>
void timeExtraSetups(Samples& raw, Samples& scaled, double scale,
                     Build build) {
  for (int i = 0; i < kExtraSetups; ++i) {
    const std::int64_t t0 = hostNs();
    auto built = build();
    const double s = secondsSince(t0);
    raw.add(s);
    scaled.add(s * scale);
  }
}

BcsRun runBcs(const AppCase& ac, std::uint64_t seed, Tracer* tracer,
              OpTable* ops, SliceSteps* steps) {
  BcsRun out;
  out.sums.assign(static_cast<std::size_t>(ac.nprocs), 0.0);
  std::vector<sim::SimTime> finish;
  std::vector<double>& sums = out.sums;
  std::function<void(mpi::Comm&)> body;
  if (tracer != nullptr) {
    body = [&ac, &sums, ops, tracer](mpi::Comm& c) {
      TracedComm traced(c, *ops, *tracer);
      sums[static_cast<std::size_t>(c.rank())] = ac.app(traced);
    };
  } else {
    body = [&ac, &sums](mpi::Comm& c) {
      sums[static_cast<std::size_t>(c.rank())] = ac.app(c);
    };
  }
  std::int64_t t0 = hostNs();
  const int setup_span = tracer ? tracer->open("setup") : -1;
  BcsStack stack = setUpBcs(ac, seed, body, &finish);
  out.setup_s = secondsSince(t0);
  if (tracer != nullptr) tracer->close(setup_span);
  net::Cluster& cluster = *stack.cluster;
  const bcsmpi::Runtime* rt = stack.rt.get();

  t0 = hostNs();
  if (tracer != nullptr) {
    Scope run(tracer, "bcs.run");
    stepSlices(cluster, *rt, *tracer, *steps);
  } else {
    cluster.run();
  }
  out.wall_s = secondsSince(t0);

  out.unfinished = cluster.unfinishedProcesses().size();
  for (sim::SimTime t : finish) out.makespan = std::max(out.makespan, t);
  out.counters = readCounters(cluster, *rt);
  return out;
}

struct BaseRun {
  double wall_s = 0;
  sim::SimTime makespan = 0;
  std::uint64_t events = 0;
  std::vector<double> sums;
  std::string error;
};

BaseRun runBaselineMpi(const AppCase& ac, std::uint64_t seed) {
  BaseRun out;
  out.sums.assign(static_cast<std::size_t>(ac.nprocs), 0.0);
  std::vector<sim::SimTime> finish;
  const std::int64_t t0 = hostNs();
  net::Cluster cluster(clusterFor(ac.nprocs, seed));
  const auto map = baseline::blockMapping(
      ac.nprocs, cluster.numComputeNodes(), kProcsPerNode);
  try {
    baseline::runJob(
        cluster, ac.base, map,
        [&](mpi::Comm& c) {
          out.sums[static_cast<std::size_t>(c.rank())] = ac.app(c);
        },
        &finish);
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.wall_s = secondsSince(t0);
  for (sim::SimTime t : finish) out.makespan = std::max(out.makespan, t);
  out.events = cluster.engine().executedEvents();
  return out;
}

/// fiber.handoff_ns: `nprocs` processes on the workload's nodes each make
/// `calls` compute() calls of equal length.  All ranks wake at the same
/// instants, so one rank's compute() round trip spans one engine->fiber->
/// engine handoff per rank; a sample is that round trip over the rank count.
Samples handoffProbe(int nprocs, std::uint64_t seed, int calls) {
  Samples ns;
  net::Cluster cluster(clusterFor(nprocs, seed));
  const auto map = baseline::blockMapping(nprocs, cluster.numComputeNodes(),
                                          kProcsPerNode);
  for (int r = 0; r < nprocs; ++r) {
    cluster.spawn(map[static_cast<std::size_t>(r)], "handoff-probe",
                  [&ns, nprocs, calls](sim::Process& p) {
                    for (int k = 0; k < calls; ++k) {
                      const std::int64_t h0 = hostNs();
                      p.compute(sim::usec(10));
                      ns.add(static_cast<double>(hostNs() - h0) /
                             static_cast<double>(nprocs));
                    }
                  });
  }
  cluster.run();
  return ns;
}

void runFiberApp(const Options& opt, const AppCase& ac, Report& report,
                 Tracer& tracer) {
  Placement place(opt, report, /*workers=*/1);
  report.absent("snapshot.", "no checkpointing in this workload");
  report.absent("par.", "runs on the serial engine only");

  Samples setup, setup_raw, wall, base_wall, traced_wall, wall_rel, base_rel;
  SimFingerprint bcs_fp, base_fp;
  OpTable ops;
  SliceSteps steps;
  BcsRun last;
  BaseRun last_base;
  RepLoop loop(opt, /*min_timed=*/4);
  while (loop.more()) {
    place.confineToFastest();
    const bool timed = loop.next();
    // In the traced run the repetitions alternate untraced and traced, so
    // both see the same host conditions; the untraced ones give the
    // reference for trace.overhead_pct and the baseline-MPI layer.
    const bool traced = opt.trace && loop.timed() % 2 == 1;
    if (traced) {
      tracer.clear();
      ops.clear();
      steps = SliceSteps{};
    }
    Scope rep(traced ? &tracer : nullptr, "rep");
    const double y0 = traced ? 0 : yardstickSeconds();
    const BcsRun r = runBcs(ac, opt.seed, traced ? &tracer : nullptr,
                            traced ? &ops : nullptr, &steps);
    checkRequests(report, r.counters, "BCS-MPI");
    report.fail(r.unfinished, "BCS-MPI ranks unfinished");
    bcs_fp.check(report,
                 {static_cast<std::uint64_t>(r.makespan), r.counters.events},
                 traced ? "traced BCS-MPI run" : "BCS-MPI run");
    if (traced) {
      if (timed) traced_wall.add(r.wall_s);
      last = r;
      continue;
    }
    const double y1 = yardstickSeconds();
    if (timed) {
      wall.add(r.wall_s);
      const double y = 0.5 * (y0 + y1);
      wall_rel.add(r.wall_s / y);
      setup_raw.add(r.setup_s);
      setup.add(r.setup_s * kReferenceYardstickS / y);
      timeExtraSetups(setup_raw, setup, kReferenceYardstickS / y, [&] {
        return setUpBcs(ac, opt.seed, [](mpi::Comm&) {}, nullptr);
      });
    }
    const BaseRun b = runBaselineMpi(ac, opt.seed);
    const double y2 = yardstickSeconds();
    report.check(b.error.empty(), "baseline run: " + b.error);
    report.check(b.sums == r.sums,
                 "BCS-MPI checksums differ from the baseline's");
    base_fp.check(report, {static_cast<std::uint64_t>(b.makespan), b.events},
                  "baseline run");
    if (timed) {
      base_wall.add(b.wall_s);
      base_rel.add(b.wall_s / (0.5 * (y1 + y2)));
    }
    if (!opt.trace) last = r;
    last_base = b;
  }

  report.timing("wall_s", wall);
  report.timing("setup_raw_s", setup_raw);
  report.timing("setup_s", setup);
  report.metric("peak_rss_mb", peakRssMb(), "MB");
  report.timing("baseline_wall_s", base_wall);
  report.timing("wall_rel", wall_rel, "ratio");
  report.timing("baseline_wall_rel", base_rel, "ratio");
  report.metric("sim_makespan_s", sim::toSec(last.makespan), "sim_s");
  report.metric("bcs_over_baseline",
                static_cast<double>(last.makespan) /
                    static_cast<double>(last_base.makespan),
                "ratio");
  if (!opt.trace) return;

  reportCounters(report, last.counters, wall.median(), steps);
  const Samples handoff = handoffProbe(ac.nprocs, opt.seed, 200);
  report.samples("fiber.handoff_ns", handoff, "ns");
  const OpStats& compute = ops["compute"];
  report.metric("app.compute.calls", static_cast<double>(compute.calls),
                "count");
  report.samples("app.compute.host_us", compute.host_us, "us");
  for (const std::string& op : kMpiOps) {
    const OpStats& s = ops[op];
    if (s.calls == 0) {
      report.absent("mpi." + op + ".", "the application makes no " + op +
                                           " calls");
      continue;
    }
    report.metric("mpi." + op + ".calls", static_cast<double>(s.calls),
                  "count");
    report.samples("mpi." + op + ".host_us", s.host_us, "us");
    report.samples("mpi." + op + ".sim_us", s.sim_us, "sim_us");
  }
  for (const auto& [op, s] : ops) {
    if (op != "compute" &&
        std::find(kMpiOps.begin(), kMpiOps.end(), op) == kMpiOps.end()) {
      report.note("mpi op outside the reported set: " + op + " x" +
                  std::to_string(s.calls));
    }
  }

  report.metric("baseline.events", static_cast<double>(last_base.events),
                "count");
  report.metric("baseline.sim_makespan_s", sim::toSec(last_base.makespan),
                "sim_s");
  report.metric("trace.overhead_pct",
                (traced_wall.median() / wall.median() - 1.0) * 100.0, "%");
}

// ---------------------------------------------------------------------------
// ring_ckpt: the detached flat ring with periodic capture and a restore
// ---------------------------------------------------------------------------

snapshot::ScenarioSpec ringSpec(std::uint64_t seed, bool smoke) {
  snapshot::ScenarioSpec s;
  const int n = smoke ? 64 : 512;
  s.cluster.num_compute_nodes = n;
  s.cluster.seed = seed;
  s.mpi.runtime_init_overhead = sim::usec(200);
  s.mpi.checkpoint_every_slices = smoke ? 4 : 16;
  s.ring.ranks = n;
  s.ring.node_of_rank.resize(static_cast<std::size_t>(n));
  std::iota(s.ring.node_of_rank.begin(), s.ring.node_of_rank.end(), 0);
  s.ring.rounds = smoke ? 8 : 30;
  s.ring.bytes = 512;
  s.trace = false;  // a text trace would grow with the run and its blobs
  return s;
}

struct RingRun {
  double setup_s = 0;
  double wall_s = 0;
  sim::SimTime end = 0;  ///< time of the last event
  RunCounters counters;
  std::uint64_t digest = 0;
  bool finished = false;
};

void finishRingRun(snapshot::Simulation& s, RingRun& out) {
  out.counters = readCounters(*s.cluster, *s.runtime);
  out.digest = s.workload->dataDigest();
  out.finished = s.workload->allFinished();
}

/// Runs the ring to the end and returns the time of its last event.
/// Traced: one slice per run(until) step up to a slice before `end` (known
/// from the untraced warm-up), then an unbounded run().  A bounded run()
/// that drains the queue leaves the clock at its bound, not at the last
/// event, so the last stretch must be unbounded.
sim::SimTime runRing(snapshot::Simulation& s, Tracer* tracer,
                     SliceSteps* steps, sim::SimTime end) {
  if (tracer == nullptr) return s.cluster->run();
  Scope run(tracer, "ring.run");
  stepSlices(*s.cluster, *s.runtime, *tracer, *steps,
             end - s.runtime->config().time_slice);
  return s.cluster->run();
}

/// Barrier windows of a parallel run, timed in the benchmark's own
/// `next_barrier` callback.
struct ParWindows {
  Samples host_us;  ///< host time between consecutive barriers
  std::uint64_t barriers = 0;
};

/// The reference ring (no captures) on the parallel engine at `workers`
/// threads, with the runtime's own slice-boundary barriers.  The runtime
/// lives entirely on shard 0 (see Runtime::parallelPolicy), so this shows
/// what drain, merge and barrier cost a slice-synchronous runtime, not a
/// speed-up.  With `windows` set, each window is timed and gets a span.
RingRun runRingParallel(const snapshot::ScenarioSpec& spec, int workers,
                        Tracer* tracer, ParWindows* windows) {
  snapshot::Simulation r = snapshot::build(spec);
  sim::ParallelPolicy policy = r.runtime->parallelPolicy(workers);
  int span = -1;
  std::int64_t start = 0;
  const auto closeWindow = [&] {
    if (span < 0) return;
    windows->host_us.add(static_cast<double>(hostNs() - start) * 1e-3);
    tracer->close(span);
    span = -1;
  };
  if (windows != nullptr) {
    policy.next_barrier = [grid = policy.next_barrier, &closeWindow, &span,
                           &start, tracer, windows](sim::SimTime t) {
      closeWindow();
      span = tracer->open("par.window");
      start = hostNs();
      ++windows->barriers;
      return grid(t);
    };
  }
  RingRun out;
  const std::int64_t h0 = hostNs();
  out.end = r.cluster->run(policy);
  out.wall_s = secondsSince(h0);
  closeWindow();
  finishRingRun(r, out);
  return out;
}

void runRingCkpt(const Options& opt, Report& report, Tracer& tracer) {
  // Workers of the traced run's parallel-engine runs; the rest is serial.
  const int workers = std::max(
      1, std::min({4, static_cast<int>(allowedCpus().size()),
                   static_cast<int>(std::thread::hardware_concurrency())}));
  Placement place(opt, report, opt.trace ? workers : 1);
  report.absent("fiber.", "ranks are detached state machines, no fibers");
  report.absent("app.", "ranks are detached state machines, no fibers");
  report.absent("mpi.", "ranks call the runtime directly, not mpi::Comm");
  report.absent("baseline.", "no baseline-MPI run: the reference is the "
                             "same ring without checkpoints");

  const snapshot::ScenarioSpec spec = ringSpec(opt.seed, opt.smoke);
  Samples setup, setup_raw, wall, ref_wall, traced_wall, wall_rel, ref_rel;
  Samples capture_ms, restore_ms, par_wall, t1_wall;
  SimFingerprint fp;
  SliceSteps steps;
  ParWindows windows;
  RingRun last;
  sim::SimTime untraced_end = 0;  // the warm-up's, which is never traced
  std::size_t blob_bytes = 0;
  std::uint64_t captures = 0;
  RepLoop loop(opt, /*min_timed=*/4);
  while (loop.more()) {
    place.confineToFastest();
    const bool timed = loop.next();
    const bool traced = opt.trace && loop.timed() % 2 == 1;
    Tracer* t = traced ? &tracer : nullptr;
    if (traced) {
      tracer.clear();
      steps = SliceSteps{};
      windows = ParWindows{};
    }
    Scope rep(t, "rep");

    // The checkpointing run.
    const double y0 = traced ? 0 : yardstickSeconds();
    RingRun a;
    std::int64_t h0 = hostNs();
    snapshot::Simulation sim = [&] {
      Scope s(t, "setup");
      return snapshot::build(spec);
    }();
    a.setup_s = secondsSince(h0);
    std::vector<std::vector<std::uint8_t>> blobs;
    std::uint64_t rep_captures = 0;
    sim.runtime->setSnapshotSink([&](std::uint64_t) {
      const int span = t ? t->open("snapshot.capture") : -1;
      const std::int64_t c0 = hostNs();
      blobs.push_back(snapshot::capture(sim));
      if (timed) capture_ms.add(static_cast<double>(hostNs() - c0) * 1e-6);
      if (t) t->close(span);
      ++rep_captures;
    });
    h0 = hostNs();
    a.end = runRing(sim, t, &steps, untraced_end);
    a.wall_s = secondsSince(h0);
    finishRingRun(sim, a);
    checkRequests(report, a.counters, "ring");
    report.attempt(rep_captures);
    report.check(a.finished, "ring: not every rank finished");
    report.check(!blobs.empty(), "ring: no checkpoint was captured");
    fp.check(report,
             {static_cast<std::uint64_t>(a.end), a.counters.events, a.digest},
             traced ? "traced ring run" : "ring run");
    if (traced) {
      if (timed) traced_wall.add(a.wall_s);
      last = a;
      // The parallel engine on the reference ring: one worker, then all.
      place.release();
      const auto checkParallel = [&](const RingRun& p, const char* who) {
        report.check(p.finished && p.digest == a.digest && p.end == a.end &&
                         p.counters.events == a.counters.events,
                     std::string(who) + " ring differs from the serial run");
      };
      RingRun p;
      {
        Scope s(t, "par.t1");
        p = runRingParallel(spec, 1, nullptr, nullptr);
      }
      checkParallel(p, "one-worker parallel");
      if (timed) t1_wall.add(p.wall_s);
      {
        Scope s(t, "par.run");
        p = runRingParallel(spec, workers, t, &windows);
      }
      checkParallel(p, "parallel");
      if (timed) par_wall.add(p.wall_s);
      continue;
    }
    const double y1 = yardstickSeconds();
    if (timed) {
      wall.add(a.wall_s);
      const double y = 0.5 * (y0 + y1);
      wall_rel.add(a.wall_s / y);
      setup_raw.add(a.setup_s);
      setup.add(a.setup_s * kReferenceYardstickS / y);
      timeExtraSetups(setup_raw, setup, kReferenceYardstickS / y,
                      [&] { return snapshot::build(spec); });
    }
    if (!opt.trace) last = a;
    untraced_end = a.end;
    captures = rep_captures;
    if (!blobs.empty()) blob_bytes = blobs.back().size();

    // The reference: the same ring, uninterrupted and never captured.
    RingRun ref;
    {
      snapshot::Simulation r = snapshot::build(spec);
      h0 = hostNs();
      ref.end = r.cluster->run();
      ref.wall_s = secondsSince(h0);
      finishRingRun(r, ref);
    }
    report.check(ref.finished, "reference ring: not every rank finished");
    report.check(ref.digest == a.digest && ref.end == a.end &&
                     ref.counters.events == a.counters.events,
                 "capturing changed the ring run");
    const double y2 = yardstickSeconds();
    if (timed) {
      ref_wall.add(ref.wall_s);
      ref_rel.add(ref.wall_s / (0.5 * (y1 + y2)));
    }

    // Restore the mid-run capture into a fresh stack and continue.
    if (blobs.empty()) continue;
    h0 = hostNs();
    snapshot::Simulation c = snapshot::restore(spec, blobs[blobs.size() / 2]);
    if (timed) restore_ms.add(secondsSince(h0) * 1e3);
    const sim::SimTime c_end = c.cluster->run();
    report.check(c.workload->allFinished(),
                 "restored ring: not every rank finished");
    report.check(c.workload->dataDigest() == a.digest && c_end == a.end,
                 "restored continuation differs from the uninterrupted run");
  }

  report.timing("wall_s", wall);
  report.timing("setup_raw_s", setup_raw);
  report.timing("setup_s", setup);
  report.metric("peak_rss_mb", peakRssMb(), "MB");
  report.timing("baseline_wall_s", ref_wall);
  report.timing("wall_rel", wall_rel, "ratio");
  report.timing("baseline_wall_rel", ref_rel, "ratio");
  report.metric("sim_makespan_s", sim::toSec(last.end), "sim_s");
  // Capture is pure observation: the checkpointed run must take exactly
  // the simulated time of the reference, so this ratio is 1 by contract.
  report.metric("bcs_over_baseline", 1.0, "ratio");
  if (!opt.trace) return;

  reportCounters(report, last.counters, wall.median(), steps);
  report.metric("snapshot.captures", static_cast<double>(captures), "count");
  report.samples("snapshot.capture_ms", capture_ms, "ms");
  report.metric("snapshot.bytes", static_cast<double>(blob_bytes), "bytes");
  report.metric("snapshot.restore_ms", restore_ms.median(), "ms");
  report.metric("par.workers", static_cast<double>(workers), "count");
  report.metric("par.barriers", static_cast<double>(windows.barriers), "count");
  report.samples("par.window_host_us", windows.host_us, "us");
  report.metric("par.t1_wall_s", t1_wall.median(), "s");
  report.metric("par.scaling", t1_wall.median() / par_wall.median(), "ratio");
  report.metric("trace.overhead_pct",
                (traced_wall.median() / wall.median() - 1.0) * 100.0, "%");
}

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {"sweep3d", "nas_is",
                                                 "ring_ckpt"};
  return names;
}

void runWorkload(const Options& opt, Report& report, Tracer& tracer) {
  if (opt.workload == "sweep3d") {
    runFiberApp(opt, sweep3dCase(opt.smoke), report, tracer);
  } else if (opt.workload == "nas_is") {
    runFiberApp(opt, nasIsCase(opt.smoke), report, tracer);
  } else {
    runRingCkpt(opt, report, tracer);
  }
}

}  // namespace perfbench

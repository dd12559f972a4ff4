#include "net/fabric.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <utility>

#include "race/race.hpp"

namespace bcs::net {

namespace {
// Shorthand for endpoint access records; no-op when no detector attached.
inline void raceTouch(race::RaceDetector* race, int node,
                      race::FieldGroup group, const char* site) {
  if (race != nullptr) {
    race->record(race::ObjectKind::kFabricEndpoint,
                 static_cast<std::uint64_t>(node), group,
                 race::RaceDetector::Access::kWrite, site);
  }
}
}  // namespace

Fabric::Fabric(sim::Engine& engine, NetworkParams params, int num_nodes,
               sim::Trace* trace)
    : engine_(engine),
      params_(std::move(params)),
      num_nodes_(num_nodes),
      tree_(num_nodes, params_.radix),
      endpoints_(static_cast<std::size_t>(num_nodes)),
      trace_(trace) {}

void Fabric::checkNode(int node) const {
  if (node < 0 || node >= num_nodes_) {
    throw sim::SimError("Fabric: node index " + std::to_string(node) +
                        " out of range [0, " + std::to_string(num_nodes_) +
                        ")");
  }
}

void Fabric::setFaultInjector(sim::FaultInjector* injector) {
  if (injector != nullptr && !shard_map_.empty()) {
    sim::simFail("Fabric: a fault injector cannot be combined with a shard "
                 "map (fault RNG draws would race across shard workers)");
  }
  fault_ = injector;
}

void Fabric::setShardMap(std::vector<sim::ShardId> shard_of) {
  if (!shard_of.empty()) {
    if (fault_ != nullptr) {
      sim::simFail("Fabric: a shard map cannot be combined with a fault "
                   "injector (fault RNG draws would race across shard "
                   "workers)");
    }
    if (shard_of.size() != static_cast<std::size_t>(num_nodes_)) {
      sim::simFail("Fabric::setShardMap: map covers " +
                   std::to_string(shard_of.size()) + " nodes, fabric has " +
                   std::to_string(num_nodes_));
    }
  }
  shard_map_ = std::move(shard_of);
  registerRaceObjects();
}

void Fabric::setRaceDetector(race::RaceDetector* detector) {
  race_ = detector;
  registerRaceObjects();
}

void Fabric::registerRaceObjects() {
  if (race_ == nullptr) return;
  for (int n = 0; n < num_nodes_; ++n) {
    const sim::ShardId owner =
        shard_map_.empty() ? 0 : shard_map_[static_cast<std::size_t>(n)];
    race_->registerObject(race::ObjectKind::kFabricEndpoint,
                          static_cast<std::uint64_t>(n), owner);
  }
  // The statistic stripes are shared *by design* — per-worker cache-line
  // stripes with atomic folds — so multi-shard writes are exempt.
  for (std::size_t s = 0; s < kStatStripes; ++s) {
    race_->registerShared(race::ObjectKind::kStatStripe, s);
  }
}

void Fabric::bump(std::uint64_t FabricStats::* counter, std::uint64_t delta) {
  const int w = sim::detail::currentWorkerIndex();
  if (race_ != nullptr) {
    // Stripes are registered shared-exempt: the record documents the
    // multi-shard write without ever producing a finding.
    const std::uint64_t stripe =
        w < 0 ? 0 : 1 + static_cast<std::uint64_t>(w) % (kStatStripes - 1);
    race_->record(race::ObjectKind::kStatStripe, stripe,
                  race::FieldGroup::kStripe, race::RaceDetector::Access::kWrite,
                  "Fabric::bump");
  }
  if (w < 0) {
    // Serial engine, or the parallel coordinator between windows — single
    // threaded by construction, so the plain add stays.
    stat_stripes_[0].s.*counter += delta;
    return;
  }
  // Each worker gets its own cache-line stripe (for any realistic worker
  // count); the atomic add only matters if two workers ever hash together,
  // and on a private line it costs the same as a plain add.
  StatStripe& stripe =
      stat_stripes_[1 + static_cast<std::size_t>(w) % (kStatStripes - 1)];
  std::atomic_ref<std::uint64_t>(stripe.s.*counter)
      .fetch_add(delta, std::memory_order_relaxed);
}

FabricStats Fabric::stats() const {
  FabricStats total;
  for (const StatStripe& stripe : stat_stripes_) {
    total.unicasts += stripe.s.unicasts;
    total.multicasts += stripe.s.multicasts;
    total.conditionals += stripe.s.conditionals;
    total.payload_bytes += stripe.s.payload_bytes;
    total.drops += stripe.s.drops;
    total.failed_sends += stripe.s.failed_sends;
    total.suppressed_deliveries += stripe.s.suppressed_deliveries;
    total.suppressed_conditionals += stripe.s.suppressed_conditionals;
  }
  return total;
}

Duration Fabric::baseLatency(int src, int dst) const {
  if (src == dst) return params_.pci_latency;
  return params_.wire_latency +
         static_cast<Duration>(tree_.hops(src, dst)) * params_.hop_latency;
}

void Fabric::unicast(int src, int dst, std::size_t bytes,
                     std::function<void()> on_delivered,
                     std::function<void()> on_injected, SendOptions opts) {
  checkNode(src);
  checkNode(dst);
  bump(&FabricStats::unicasts);
  bump(&FabricStats::payload_bytes, static_cast<std::uint64_t>(bytes));

  const SimTime now = engine_.now();

  // Cross-shard transfer under a shard map: model the source side (egress
  // occupancy, wire latency) as usual, but hand the delivery off to the
  // destination's shard instead of touching its ingress state.  The handoff
  // lands at or past the next barrier by the conservative-window contract
  // (Engine::handoff enforces it loudly).
  if (!shard_map_.empty() && src != dst &&
      shard_map_[static_cast<std::size_t>(src)] !=
          shard_map_[static_cast<std::size_t>(dst)]) {
    const double bw = params_.effectiveBandwidth();
    const auto serial =
        static_cast<Duration>(std::ceil(static_cast<double>(bytes) / bw));
    Endpoint& e_src = endpoints_[static_cast<std::size_t>(src)];
    const SimTime inject = now + params_.nic_tx_overhead + params_.pci_latency;
    const SimTime start_tx = std::max(inject, e_src.egress_free);
    e_src.egress_free = start_tx + serial;
    // Cross-shard: only the source endpoint is touched — the destination's
    // ingress state belongs to another shard and is deliberately skipped.
    raceTouch(race_, src, race::FieldGroup::kEgress, "Fabric::unicast");
    const SimTime completion = start_tx + baseLatency(src, dst) + serial +
                               params_.nic_rx_overhead;
    record(trace::kUnicastCrossShard, src, dst, bytes, completion);
    if (on_injected) engine_.at(e_src.egress_free, std::move(on_injected));
    engine_.handoff(shard_map_[static_cast<std::size_t>(dst)], completion,
                    std::move(on_delivered));
    return;
  }

  // A down source NIC cannot inject anything: report failure after the ack
  // timeout without occupying the wire.
  if (fault_ && fault_->nodeDown(src, now)) {
    bump(&FabricStats::failed_sends);
    record(trace::kUnicastSourceDown, src, dst);
    if (opts.on_failed) {
      engine_.at(now + params_.ack_timeout, std::move(opts.on_failed));
    }
    return;
  }

  if (src == dst) {
    // NIC loopback: payload crosses the host bus twice but never the wire.
    const double bw =
        params_.pci_bandwidth > 0 ? params_.pci_bandwidth : params_.link_bandwidth;
    const auto xfer = static_cast<Duration>(static_cast<double>(bytes) / bw);
    const Duration total = params_.nic_tx_overhead + params_.nic_rx_overhead +
                           params_.pci_latency + xfer;
    if (on_injected) engine_.at(now + params_.nic_tx_overhead, std::move(on_injected));
    engine_.at(now + total, std::move(on_delivered));
    return;
  }

  const double bw = params_.effectiveBandwidth();
  const auto serial =
      static_cast<Duration>(std::ceil(static_cast<double>(bytes) / bw));

  Endpoint& e_src = endpoints_[static_cast<std::size_t>(src)];
  Endpoint& e_dst = endpoints_[static_cast<std::size_t>(dst)];

  const SimTime inject = now + params_.nic_tx_overhead + params_.pci_latency;
  const SimTime start_tx = std::max(inject, e_src.egress_free);
  e_src.egress_free = start_tx + serial;
  raceTouch(race_, src, race::FieldGroup::kEgress, "Fabric::unicast");

  // Fault decisions: the packet occupies the source egress either way (it
  // was injected), but a lost packet never occupies the destination ingress
  // and never delivers.  The drop draw happens before the degrade draw so
  // the randomness stream is consumed in a fixed order.
  bool lost = false;
  Duration degrade = 0;
  if (fault_) {
    const bool dropped = opts.droppable && fault_->shouldDrop(src, dst);
    const bool dst_down = fault_->nodeDown(dst, now);
    lost = dropped || dst_down;
    if (dropped) {
      bump(&FabricStats::drops);
    } else if (dst_down) {
      bump(&FabricStats::failed_sends);
    }
    if (!lost && opts.droppable) degrade = fault_->degradeExtra();
  }

  const SimTime arrival = start_tx + baseLatency(src, dst) + serial + degrade;

  if (lost) {
    record(trace::kUnicastLost, src, dst, bytes);
    if (on_injected) engine_.at(e_src.egress_free, std::move(on_injected));
    if (opts.on_failed) {
      engine_.at(arrival + params_.nic_rx_overhead + params_.ack_timeout,
                 std::move(opts.on_failed));
    }
    return;
  }

  const SimTime deliver_end =
      std::max(arrival, e_dst.ingress_free + serial);
  e_dst.ingress_free = deliver_end;
  raceTouch(race_, dst, race::FieldGroup::kIngress, "Fabric::unicast");

  const SimTime completion = deliver_end + params_.nic_rx_overhead;

  record(trace::kUnicast, src, dst, bytes, completion);
  if (on_injected) engine_.at(e_src.egress_free, std::move(on_injected));
  engine_.at(completion, std::move(on_delivered));
}

void Fabric::multicast(int src, std::vector<int> dests, std::size_t bytes,
                       std::function<void(int)> on_delivered_at,
                       std::function<void()> on_all) {
  checkNode(src);
  dests.erase(std::remove(dests.begin(), dests.end(), src), dests.end());
  std::sort(dests.begin(), dests.end());
  dests.erase(std::unique(dests.begin(), dests.end()), dests.end());
  for (int d : dests) checkNode(d);
  if (!shard_map_.empty()) {
    const sim::ShardId home = shard_map_[static_cast<std::size_t>(src)];
    for (int d : dests) {
      if (shard_map_[static_cast<std::size_t>(d)] != home) {
        sim::simFail("Fabric::multicast: cross-shard destination n" +
                     std::to_string(d) +
                     " under a shard map (keep collective traffic on one "
                     "shard)");
      }
    }
  }

  bump(&FabricStats::multicasts);
  bump(&FabricStats::payload_bytes,
       static_cast<std::uint64_t>(bytes) *
           static_cast<std::uint64_t>(std::max<std::size_t>(dests.size(), 1)));

  if (dests.empty()) {
    if (on_all) engine_.at(engine_.now(), std::move(on_all));
    return;
  }

  if (!params_.hw_multicast) {
    softwareMulticast(src, dests, bytes, std::move(on_delivered_at),
                      std::move(on_all));
    return;
  }

  const SimTime now = engine_.now();
  const double bw = params_.effectiveBandwidth();
  const auto serial =
      static_cast<Duration>(std::ceil(static_cast<double>(bytes) / bw));
  const double mbw = params_.mcast_bandwidth > 0 ? params_.mcast_bandwidth : bw;
  const auto dserial =
      static_cast<Duration>(std::ceil(static_cast<double>(bytes) / mbw));

  Endpoint& e_src = endpoints_[static_cast<std::size_t>(src)];
  const SimTime inject = now + params_.nic_tx_overhead + params_.pci_latency;
  const SimTime start_tx = std::max(inject, e_src.egress_free);
  e_src.egress_free = start_tx + serial;
  raceTouch(race_, src, race::FieldGroup::kEgress, "Fabric::multicast");

  // The switch fans out; the fixed part is the depth of the tree.
  const Duration fanout_latency =
      params_.mcast_base_latency +
      static_cast<Duration>(tree_.levels()) * params_.hop_latency;

  // Legs to down destinations (or the whole fan-out, if the source is down)
  // are suppressed: the hardware multicast is reliable for live endpoints,
  // so live destinations still receive even when siblings are dead.
  const bool src_down = fault_ && fault_->nodeDown(src, now);
  SimTime last = start_tx + fanout_latency;  // fallback if no live dest
  std::vector<std::pair<SimTime, int>> legs;  // (completion, dest) if needed
  if (on_delivered_at) legs.reserve(dests.size());
  for (int d : dests) {
    if (src_down || (fault_ && fault_->nodeDown(d, now))) {
      bump(&FabricStats::suppressed_deliveries);
      record(trace::kMulticastLegSuppressed, src, d);
      continue;
    }
    Endpoint& e_dst = endpoints_[static_cast<std::size_t>(d)];
    const SimTime arrival = start_tx + fanout_latency + dserial;
    const SimTime deliver_end = std::max(arrival, e_dst.ingress_free + dserial);
    e_dst.ingress_free = deliver_end;
    raceTouch(race_, d, race::FieldGroup::kIngress, "Fabric::multicast");
    const SimTime completion = deliver_end + params_.nic_rx_overhead;
    last = std::max(last, completion);
    if (on_delivered_at) legs.emplace_back(completion, d);
  }
  record(trace::kHwMulticast, src, dests.size(), bytes);

  // One engine event per distinct completion instant, calling the callback
  // for that instant's destinations in ascending order.  This is exactly the
  // one-event-per-leg order: legs scheduled back to back in this call get
  // consecutive keys, so same-instant legs would fire back to back anyway,
  // and whatever a leg schedules lands behind all of them.
  if (!legs.empty()) {
    std::sort(legs.begin(), legs.end());  // (time, node); nodes are unique
    struct Fanout {
      std::function<void(int)> cb;
      std::vector<std::pair<SimTime, int>> legs;
    };
    auto fan = std::make_shared<Fanout>(
        Fanout{std::move(on_delivered_at), std::move(legs)});
    const std::size_t n = fan->legs.size();
    for (std::size_t b = 0, e = 0; b < n; b = e) {
      const SimTime when = fan->legs[b].first;
      while (e < n && fan->legs[e].first == when) ++e;
      engine_.at(when, [fan, b, e] {
        for (std::size_t i = b; i < e; ++i) fan->cb(fan->legs[i].second);
      });
    }
  }
  if (on_all) engine_.at(last, std::move(on_all));
}

void Fabric::softwareMulticast(int src, const std::vector<int>& dests,
                               std::size_t bytes,
                               std::function<void(int)> on_delivered_at,
                               std::function<void()> on_all) {
  // Binomial tree rooted at src.  Relay order: src, dests[0], dests[1], ...
  // Position i forwards to positions i + 2^k for i + 2^k < n, largest k
  // first — the classic log2(n) schedule.  Each forward costs one software
  // step on the relaying NIC plus a unicast.
  struct State {
    std::vector<int> order;
    std::function<void(int)> per_dest;
    std::function<void()> all_done;
    std::size_t outstanding = 0;
  };
  auto st = std::make_shared<State>();
  st->order.reserve(dests.size() + 1);
  st->order.push_back(src);
  st->order.insert(st->order.end(), dests.begin(), dests.end());
  st->per_dest = std::move(on_delivered_at);
  st->all_done = std::move(on_all);
  st->outstanding = dests.size();

  const std::size_t n = st->order.size();

  // Doubling schedule: in round r (r = 1, 2, 4, ...), every position p < r
  // with p + r < n sends to position p + r.  A position issues its sends
  // when its own copy of the payload has arrived, so depth and contention
  // are modelled by the chained unicasts themselves, each preceded by one
  // software processing step on the relaying NIC.
  struct Issue {
    std::size_t from, to;
  };
  std::vector<Issue> schedule;
  for (std::size_t r = 1; r < 2 * n; r <<= 1) {
    for (std::size_t p = 0; p < r && p + r < n; ++p) {
      schedule.push_back(Issue{p, p + r});
    }
  }
  // received[i] callback chain: when position i has the payload, issue all
  // its scheduled sends (those with from == i).
  auto issueFrom = std::make_shared<std::function<void(std::size_t)>>();
  auto sched = std::make_shared<std::vector<Issue>>(std::move(schedule));
  std::size_t bytes_copy = bytes;
  *issueFrom = [this, st, issueFrom, sched, bytes_copy](std::size_t pos) {
    for (const Issue& is : *sched) {
      if (is.from != pos) continue;
      const int from_node = st->order[is.from];
      const int to_node = st->order[is.to];
      const std::size_t to_pos = is.to;
      engine_.after(params_.sw_step_latency, [this, st, issueFrom, from_node,
                                              to_node, to_pos, bytes_copy] {
        unicast(from_node, to_node,
                bytes_copy,
                [st, issueFrom, to_node, to_pos] {
                  if (st->per_dest) st->per_dest(to_node);
                  (*issueFrom)(to_pos);
                  if (--st->outstanding == 0) {
                    // `*issueFrom` holds `issueFrom`: with every copy
                    // delivered no send is left, so break the cycle.
                    *issueFrom = nullptr;
                    if (st->all_done) st->all_done();
                  }
                });
      });
    }
  };
  (*issueFrom)(0);
}

Duration Fabric::conditionalLatency(int n) const {
  if (n <= 1) return params_.hw_conditional ? params_.cond_base_latency
                                            : params_.sw_step_latency;
  if (params_.hw_conditional) {
    // Query broadcast down + combine up, pipelined in the switches.
    const int levels = tree_.levels();
    return params_.cond_base_latency +
           static_cast<Duration>(levels) * params_.cond_hop_latency;
  }
  // Software tree: one step per level of a binary reduction.
  const int steps =
      static_cast<int>(std::ceil(std::log2(static_cast<double>(n))));
  return static_cast<Duration>(steps) * params_.sw_step_latency;
}

Duration Fabric::multicastLatency() const {
  if (params_.hw_multicast) {
    return params_.mcast_base_latency +
           static_cast<Duration>(tree_.levels()) * params_.hop_latency;
  }
  const int steps = static_cast<int>(
      std::ceil(std::log2(static_cast<double>(std::max(num_nodes_, 2)))));
  return static_cast<Duration>(steps) *
         (params_.sw_step_latency + params_.wire_latency);
}

void Fabric::conditional(int src, std::vector<int> nodes,
                         std::function<bool(int)> eval,
                         std::function<void(int)> write,
                         std::function<void(bool)> on_result) {
  checkNode(src);
  for (int d : nodes) checkNode(d);
  if (!shard_map_.empty()) {
    const sim::ShardId home = shard_map_[static_cast<std::size_t>(src)];
    for (int d : nodes) {
      if (shard_map_[static_cast<std::size_t>(d)] != home) {
        sim::simFail("Fabric::conditional: cross-shard participant n" +
                     std::to_string(d) +
                     " under a shard map (keep conditional rounds on one "
                     "shard)");
      }
    }
  }
  bump(&FabricStats::conditionals);

  const Duration lat = conditionalLatency(static_cast<int>(nodes.size()));
  engine_.after(lat, [this, src, nodes = std::move(nodes),
                      eval = std::move(eval), write = std::move(write),
                      on_result = std::move(on_result)] {
    // A round whose issuing NIC died before the combine returns delivers its
    // result to no one: the poll chain of a dead Strobe Sender ends here
    // instead of keeping a ghost SS alive.  (Down *participants* merely
    // evaluate false, below — the issuer is special.)
    if (fault_ && fault_->nodeDown(src, engine_.now())) {
      bump(&FabricStats::suppressed_conditionals);
      record(trace::kConditionalSuppressed, src);
      return;
    }
    bool all = true;
    for (int n : nodes) {
      // A down node never answers the query broadcast, so the combine
      // reports false — the conditional cannot hang, it just fails.
      if ((fault_ && fault_->nodeDown(n, engine_.now())) || !eval(n)) {
        all = false;
        break;
      }
    }
    if (all && write) {
      for (int n : nodes) write(n);
    }
    if (on_result) on_result(all);
  });
}

}  // namespace bcs::net

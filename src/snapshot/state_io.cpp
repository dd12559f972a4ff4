#include "snapshot/state_io.hpp"

#include <algorithm>
#include <cstddef>
#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "snapshot/wire.hpp"

namespace bcs::snapshot {

namespace {

/// A map as a growable list of (key, value) pairs.  Saved in ascending key
/// order (by `less`), so the bytes never depend on hash order; loading
/// clears the map and re-inserts the pairs in wire order.
template <class Ar, class M, class Body, class Less = std::less<>>
void sortedMap(Ar& ar, M& m, Body&& body, Less less = {}) {
  std::vector<std::pair<typename M::key_type, typename M::mapped_type>> kv(
      m.begin(), m.end());
  if constexpr (!Ar::kLoading) {
    std::sort(kv.begin(), kv.end(), [&less](const auto& a, const auto& b) {
      return less(a.first, b.first);
    });
  }
  list(ar, kv, body);
  if constexpr (Ar::kLoading) {
    m.clear();
    for (auto& [k, v] : kv) m.emplace(std::move(k), std::move(v));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// The io() descriptions: each struct's fields once, in wire order
// ---------------------------------------------------------------------------

struct StateIO::Io {
  // Descriptors hold pointers into application buffers; the registry
  // swizzles them to (buffer id, offset).

  template <class Ar>
  static void io(Ar& ar, const BufferRegistry& reg,
                 bcsmpi::SendDescriptor& d) {
    ar(d.job, d.src_rank, d.dst_rank, d.tag);
    reg.ref(ar, d.data);
    ar(d.bytes, d.request, d.posted_at, d.seq, d.retries);
  }

  template <class Ar>
  static void io(Ar& ar, const BufferRegistry& reg,
                 bcsmpi::RecvDescriptor& d) {
    ar(d.job, d.dst_rank, d.want_src, d.want_tag);
    reg.ref(ar, d.data);
    ar(d.bytes, d.request, d.posted_at, d.seq);
  }

  template <class Ar>
  static void io(Ar& ar, const BufferRegistry& reg,
                 bcsmpi::MatchDescriptor& m) {
    io(ar, reg, m.send);
    io(ar, reg, m.recv);
    ar(m.offset);
  }

  template <class Ar>
  static void io(Ar& ar, const BufferRegistry& reg,
                 bcsmpi::Runtime::GetOp& g) {
    ar(g.src_node);
    reg.ref(ar, g.src);
    reg.ref(ar, g.dst);
    ar(g.bytes, g.final_chunk, g.job, g.src_rank, g.dst_rank, g.tag,
       g.message_bytes, g.send_req, g.recv_req);
  }

  // The stats structs are flat u64 counters.  A counter added to one of
  // them changes its size and fails these asserts until it is listed below.
  static_assert(sizeof(bcsmpi::RuntimeStats) == 21 * sizeof(std::uint64_t));
  static_assert(sizeof(net::FabricStats) == 8 * sizeof(std::uint64_t));
  static_assert(sizeof(sim::FaultStats) == 3 * sizeof(std::uint64_t));

  template <class Ar>
  static void io(Ar& ar, bcsmpi::RuntimeStats& s) {
    ar(s.slices, s.microstrobes, s.descriptors_exchanged, s.matches,
       s.chunks_transferred, s.collectives_scheduled, s.slice_overruns,
       s.retransmits, s.requests_failed, s.evictions, s.recovery_slices,
       s.watchdog_fires, s.elections, s.rejoins, s.tree_levels,
       s.coalesced_acks, s.fanout_msgs_per_slice, s.checkpoints_taken,
       s.restores, s.rma_ops, s.rma_batches);
  }

  template <class Ar>
  static void io(Ar& ar, net::FabricStats& s) {
    ar(s.unicasts, s.multicasts, s.conditionals, s.payload_bytes, s.drops,
       s.failed_sends, s.suppressed_deliveries, s.suppressed_conditionals);
  }

  template <class Ar>
  static void io(Ar& ar, sim::FaultStats& s) {
    ar(s.drops, s.degrades, s.forced_down);
  }

  template <class Ar>
  static void io(Ar& ar, bcsmpi::CheckpointRecord& rec) {
    ar(rec.slice, rec.time, rec.quiescent);
    list(ar, rec.jobs, [&ar](auto& js) {
      ar(js.job, js.ranks, js.finished_ranks, js.requests_posted,
         js.requests_completed);
    });
    list(ar, rec.nodes, [&ar](auto& ns) {
      ar(ns.node, ns.fresh_sends, ns.fresh_recvs, ns.unmatched_remote,
         ns.unmatched_recvs, ns.partial_messages, ns.partial_bytes_moved);
    });
  }

  template <class Ar>
  static void io(Ar& ar, core::BcsCore& c) {
    fixed(ar, c.vars_, "global-variable",
          [&ar](auto& per_node) { fixed(ar, per_node, "variable replica"); });
    fixed(ar, c.events_, "event", [&ar](auto& per_node) {
      fixed(ar, per_node, "event replica",
            [&ar](auto& ev) { ar(ev.pending); });
    });
  }

  template <class Ar>
  static void io(Ar& ar, storm::Storm& st) {
    fixed(ar, st.node_info_, "node", [&ar](auto& info) {
      ar(info.used_slots, info.missed, info.marked_dead);
    });
    ar(st.launch_seq_, st.hb_seq_, st.heartbeats_on_, st.hb_sent_,
       st.mm_node_, st.next_round_at_, st.inspect_at_, st.inspect_seq_,
       st.inspect_pending_);
  }

  template <class Ar>
  static void io(Ar& ar, verify::Verifier& v) {
    sortedMap(ar, v.pending_, [&ar](auto& kv) {
      auto& [key, group] = kv;
      ar(key, group.expected);
      list(ar, group.entries, [&ar](auto& ent) {
        ar(ent.rank, ent.node, ent.color, ent.posted_at, ent.signature);
      });
    });
    verify::VerifyReport& rep = v.report_;
    for (std::uint64_t& c : rep.counts) ar(c);
    list(ar, rep.findings, [&ar](verify::Finding& f) {
      ar(f.category, f.time, f.slice, f.node, f.job, f.rank, f.detail);
    });
    ar(rep.dropped_findings, rep.collectives_checked, rep.matches_checked,
       rep.finalized);
  }

  template <class Ar>
  static void io(Ar& ar, bcsmpi::Runtime& rt, const BufferRegistry& reg) {
    ar(rt.control_epoch_, rt.strobe_node_, rt.stop_requested_,
       rt.slice_index_, rt.slice_start_, rt.phase_seq_, rt.desc_seq_,
       rt.active_ranks_);
    list(ar, rt.live_compute_nodes_);
    fixed(ar, rt.evicted_, "evicted-set");
    list(ar, rt.recovery_records_, [&ar](auto& rec) { io(ar, rec); });
    io(ar, rt.stats_);
    fixed(ar, rt.jobs_, "job", [&ar](auto& js) {
      list(ar, js.node_of_rank);
      list(ar, js.nodes);
      ar(js.registered, js.finished, js.degraded);
      fixed(ar, js.ranks, "rank", [&ar](auto& rs) {
        if constexpr (Ar::kLoading) rs.proc = nullptr;
        ar(rs.detached, rs.finished, rs.next_req, rs.next_coll_gen,
           rs.next_rma_call, rs.requests_completed);
        sortedMap(ar, rs.requests, [&ar](auto& kv) {
          auto& [id, info] = kv;
          ar(id, info.complete, info.spin_waited, info.status.source,
             info.status.tag, info.status.bytes, info.status.error);
        });
      });
    });
    fixed(ar, rt.nodes_, "node", [&ar, &reg](auto& ns) {
      auto desc = [&ar, &reg](auto& d) { io(ar, reg, d); };
      list(ar, ns.bs_fresh, desc);
      list(ar, ns.bs_retry, desc);
      list(ar, ns.remote_sends, desc);
      list(ar, ns.recv_fresh, desc);
      list(ar, ns.recv_eligible, desc);
      list(ar, ns.match_queue, desc);
      list(ar, ns.slice_gets, desc);
      sortedMap(
          ar, ns.chunk_progress,
          [&ar](auto& kv) {
            auto& [key, bytes] = kv;
            ar(key.job, key.dst_rank, key.recv_req, bytes);
          },
          [](const auto& a, const auto& b) {
            return std::tie(a.job, a.dst_rank, a.recv_req) <
                   std::tie(b.job, b.dst_rank, b.recv_req);
          });
      list(ar, ns.wake_list);
      list(ar, ns.probe_waiters);
      ar(ns.phase_seq, ns.outstanding, ns.tree_floor, ns.tree_drain,
         ns.last_strobe, ns.watchdog_armed, ns.watchdog_at);
    });
    fixed(ar, rt.tree_racks_, "tree rack", [&ar](auto& rack) {
      ar(rack.seq, rack.acked_seq, rack.pending);
    });
    ar(rt.tree_phase_, rt.tree_phase_open_, rt.tree_recovering_);
    // SS-tree roles.  Membership is not stored: a load re-derives it from
    // the evicted set first, then applies the saved roles.
    const bool tree = rt.sstree_.enabled();
    const int racks = tree ? rt.sstree_.rackCount() : 0;
    fixedCount(ar, static_cast<std::size_t>(racks), "SS-tree rack");
    if constexpr (Ar::kLoading) {
      for (std::size_t n = 0; tree && n < rt.evicted_.size(); ++n) {
        if (rt.evicted_[n]) rt.sstree_.evict(static_cast<int>(n));
      }
    }
    for (int r = 0; r < racks; ++r) {
      int ss = rt.sstree_.ss(r);
      ar(ss);
      if constexpr (Ar::kLoading) {
        if (ss != -1 && ss != rt.sstree_.ss(r)) rt.sstree_.setSs(r, ss);
      }
    }
  }

  template <class Ar>
  static void io(Ar& ar, DetachedRing& wl) {
    fixed(ar, wl.sms_, "rank", [&ar](auto& sm) {
      ar(sm.round, sm.waiting, sm.send_req, sm.recv_req, sm.send_done,
         sm.recv_done, sm.next_tick_at, sm.finished);
    });
    ar(wl.finished_count_);
  }

  /// Every section in wire order, as section(name, body) where body takes
  /// the archive.  saveAll and restoreAll both walk this one list.
  template <class Visit>
  static void sections(Simulation& sim, Visit&& section) {
    sim::Engine& eng = sim.cluster->engine();
    bcsmpi::Runtime& rt = *sim.runtime;
    sim::SimTime captured_at = eng.now();  // loaded from meta on restore

    section("meta", [&]<class Ar>(Ar& ar) {
      std::uint64_t slice = rt.slice_index_;  // informational on load
      std::uint64_t trace_records = sim.cluster->trace().records().size();
      bool with_storm = sim.storm != nullptr;
      bool with_verify = rt.verifier_ != nullptr;
      ar(captured_at, slice, trace_records, with_storm, with_verify);
      if constexpr (Ar::kLoading) {
        if (with_storm != (sim.storm != nullptr)) {
          ar.fail("snapshot and scenario disagree on STORM presence");
        }
        if (with_verify != (rt.verifier_ != nullptr)) {
          ar.fail("snapshot and scenario disagree on the verifier");
        }
      }
    });
    section("engine", [&]<class Ar>(Ar& ar) {
      ar(eng.now_);
      if constexpr (Ar::kLoading) {
        if (eng.now_ != captured_at) {
          ar.fail("engine clock disagrees with meta");
        }
      }
      list(ar, eng.shard_seq_);
      ar(eng.handoff_seq_, eng.executed_, eng.cancelled_,
         eng.dropped_tombstones_);
    });
    section("rng", [&]<class Ar>(Ar& ar) {
      for (std::uint64_t& word : sim.cluster->rng().state_) ar(word);
    });
    section("fault", [&]<class Ar>(Ar& ar) {
      sim::FaultInjector& fi = *sim.cluster->faults();
      for (std::uint64_t& word : fi.rng_.state_) ar(word);
      io(ar, fi.stats_);
      // Faults forced at run time (Storm::killNode & co.) live past the
      // configured plan entries; a restore re-appends them onto whatever
      // plan the branch supplies.
      auto& plan = fi.plan_.node_faults;
      const auto configured = static_cast<std::ptrdiff_t>(
          sim.spec.cluster.faults.node_faults.size());
      std::vector<sim::FaultPlan::NodeFault> forced(plan.begin() + configured,
                                                    plan.end());
      list(ar, forced, [&ar](auto& nf) { ar(nf.node, nf.at, nf.hang); });
      if constexpr (Ar::kLoading) {
        plan.insert(plan.end(), forced.begin(), forced.end());
      }
    });
    section("fabric", [&]<class Ar>(Ar& ar) {
      net::Fabric& f = sim.cluster->fabric();
      fixed(ar, f.endpoints_, "endpoint",
            [&ar](auto& ep) { ar(ep.egress_free, ep.ingress_free); });
      // Saved as the sum of the stat stripes; loaded into stripe 0 — the
      // serial path's stripe, since restored runs continue serially.  The
      // remaining stripes of the fresh fabric are already zero.
      net::FabricStats s = f.stats();
      io(ar, s);
      if constexpr (Ar::kLoading) f.stat_stripes_[0].s = s;
    });
    section("core.runtime", [&](auto& ar) { io(ar, rt.core_); });
    section("runtime", [&](auto& ar) { io(ar, rt, *sim.registry); });
    if (sim.storm) {
      section("core.storm", [&](auto& ar) { io(ar, sim.storm->core_); });
      section("storm", [&](auto& ar) { io(ar, *sim.storm); });
    }
    if (rt.verifier_) {
      section("verify", [&](auto& ar) { io(ar, *rt.verifier_); });
    }
    section("workload", [&](auto& ar) { io(ar, *sim.workload); });
    section("buffers", [&](auto& ar) { sim.registry->contents(ar); });
  }
};

// ---------------------------------------------------------------------------
// Capture-time guards
// ---------------------------------------------------------------------------

void StateIO::checkCapturable(Simulation& sim) {
  auto refuse = [](const std::string& why) {
    throw SnapshotError("capture", why);
  };
  if (sim.cluster->processCount() > 0) {
    refuse("cluster has process fibers; only detached workloads "
           "(registerDetachedRank) are checkpointable");
  }
  bcsmpi::Runtime& rt = *sim.runtime;
  if (rt.election_inflight_) refuse("failover election in flight");
  if (!rt.checkpoint_cbs_.empty()) {
    refuse("un-dispatched requestCheckpoint callbacks");
  }
  if (!rt.pending_evictions_.empty() || !rt.pending_rejoins_.empty()) {
    refuse("pending evictions/rejoins: capture must run at the slice "
           "boundary, after recovery (use the snapshot sink)");
  }
  for (const auto& ns : rt.nodes_) {
    if (!ns.coll_fresh.empty()) refuse("undrained collective descriptors");
    for (const auto& [job, pc] : ns.pending_coll) {
      if (pc.active) {
        refuse("collective in flight (job " + std::to_string(job) + ")");
      }
    }
    if (!ns.rma_fresh.empty() || !ns.rma_retry.empty() ||
        !ns.rma_inbound.empty() || !ns.rma_returns.empty()) {
      refuse("RMA epoch in flight (one-sided ops hold raw window pointers)");
    }
  }
  if (rt.windows_.totalWindows() != 0) {
    refuse("registered RMA windows (window base addresses cannot be "
           "serialized; free windows before capture)");
  }
  auto checkCore = [&refuse](core::BcsCore& c, const char* which) {
    for (const auto& per_node : c.events_) {
      for (const auto& ev : per_node) {
        if (!ev.waiters.empty()) {
          refuse(std::string("queued event waiters on the ") + which +
                 " core (closures cannot be serialized)");
        }
      }
    }
  };
  checkCore(rt.core_, "runtime");
  if (sim.storm) checkCore(sim.storm->core_, "storm");
}

// ---------------------------------------------------------------------------
// Save and restore: one walk over the section list each
// ---------------------------------------------------------------------------

void StateIO::saveAll(Simulation& sim, SnapshotWriter& w) {
  Io::sections(sim, [&w](const char* name, auto&& body) {
    Encoder e;
    body(e);
    w.addSection(name, e.data());
  });
}

void StateIO::restoreAll(Simulation& sim, const SnapshotReader& r) {
  Io::sections(sim, [&r](const char* name, auto&& body) {
    const std::string raw = r.section(name);
    Decoder d(raw, name);
    body(d);
    d.expectEnd();
  });

  sim::Engine& eng = sim.cluster->engine();
  bcsmpi::Runtime& rt = *sim.runtime;
  const sim::SimTime now = eng.now();

  // ---- Re-arm timers (engine clock already warped to the capture instant).
  // All re-armed deadlines are pairwise distinct by the off-grid cadence
  // argument (DESIGN.md §8), so only one ordering property matters: every
  // re-armed event draws its sequence number before the resume event fires,
  // hence before anything the continuation schedules — matching the
  // interrupted run, where all pending events were armed before the
  // boundary.

  // Slice watchdogs, node-ascending (their original arming order).
  for (int n : rt.all_compute_nodes_) {
    auto& ns = rt.nodes_[static_cast<std::size_t>(n)];
    if (!ns.watchdog_armed) continue;
    ns.watchdog_armed = false;
    rt.armWatchdogAt(n, ns.watchdog_at);
  }

  // STORM heartbeat chain: the pending inspection first, then the next
  // round — the order heartbeatRound arms them in.
  if (sim.storm) {
    storm::Storm& st = *sim.storm;
    if (st.inspect_pending_) {
      eng.at(st.inspect_at_, [sp = sim.storm.get(), seq = st.inspect_seq_] {
        sp->inspectRound(seq);
      });
    }
    if (st.next_round_at_ > now) st.scheduleRound(st.next_round_at_);
  }

  // Workload ticks, rank-ascending.
  for (std::size_t r = 0; r < sim.workload->sms_.size(); ++r) {
    const auto& sm = sim.workload->sms_[r];
    if (sm.finished) continue;
    sim.workload->armTick(static_cast<int>(r), sm.next_tick_at);
  }

  ++rt.stats_.restores;

  // The resume event: runs the post-capture tail of the slice boundary.
  eng.at(now, [rp = sim.runtime.get()] { rp->resumeFromRestore(); });
}

}  // namespace bcs::snapshot

#include "snapshot/workload.hpp"

namespace bcs::snapshot {

DetachedRing::DetachedRing(bcsmpi::Runtime& rt, int job, RingSpec spec,
                           BufferRegistry& registry)
    : rt_(rt), job_(job), spec_(std::move(spec)) {
  const std::size_t n = static_cast<std::size_t>(spec_.ranks);
  sms_.resize(n);
  send_bufs_.resize(n);
  recv_bufs_.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    send_bufs_[r].resize(spec_.bytes);
    recv_bufs_[r].resize(spec_.bytes);
    registry.add(send_bufs_[r].data(), spec_.bytes);  // id 2r
    registry.add(recv_bufs_[r].data(), spec_.bytes);  // id 2r + 1
  }
}

void DetachedRing::start() {
  // First ticks land at (350 + r) µs past the first slice boundary grid
  // origin; registration starts the strobe with boundaries on the
  // runtime_init_overhead grid (200 µs mod slice in the ckpt scenarios), so
  // the cadence never collides with boundary events.
  const SimTime now = rt_.cluster().engine().now();
  const sim::Duration slice = rt_.config().time_slice;
  for (int r = 0; r < spec_.ranks; ++r) {
    armTick(r, now + slice - sim::usec(150) + sim::usec(r));
  }
}

void DetachedRing::armTick(int r, SimTime at) {
  sms_[static_cast<std::size_t>(r)].next_tick_at = at;
  rt_.cluster().engine().at(at, [this, r] { tick(r); });
}

void DetachedRing::fillSendBuffer(int r) {
  // Deterministic round-dependent payload, so the data digest proves the
  // restored run moved the same bytes.
  RankSm& sm = sms_[static_cast<std::size_t>(r)];
  std::vector<std::byte>& buf = send_bufs_[static_cast<std::size_t>(r)];
  for (std::size_t k = 0; k < buf.size(); ++k) {
    buf[k] = static_cast<std::byte>(
        (static_cast<std::size_t>(r) * 131 +
         static_cast<std::size_t>(sm.round) * 17 + k) &
        0xff);
  }
}

void DetachedRing::tick(int r) {
  RankSm& sm = sms_[static_cast<std::size_t>(r)];
  if (sm.finished) return;
  if (rt_.nodeEvicted(rt_.nodeOfRank(job_, r))) {
    // The node was declared dead: eviction already force-finished the rank;
    // just stop driving it.
    sm.finished = true;
    ++finished_count_;
    return;
  }
  if (!sm.waiting) {
    fillSendBuffer(r);
    const int dst = (r + 1) % spec_.ranks;
    const int src = (r - 1 + spec_.ranks) % spec_.ranks;
    sm.send_req =
        rt_.postSend(job_, r, send_bufs_[static_cast<std::size_t>(r)].data(),
                     spec_.bytes, dst, sm.round);
    sm.recv_req =
        rt_.postRecv(job_, r, recv_bufs_[static_cast<std::size_t>(r)].data(),
                     spec_.bytes, src, sm.round);
    sm.send_done = false;
    sm.recv_done = false;
    sm.waiting = true;
  } else {
    // testRequest consumes the request on success (including completion in
    // error after a peer eviction), hence the done flags.
    mpi::Status st;
    if (!sm.send_done && rt_.testRequest(job_, r, sm.send_req, &st)) {
      sm.send_done = true;
    }
    if (!sm.recv_done && rt_.testRequest(job_, r, sm.recv_req, &st)) {
      sm.recv_done = true;
    }
    if (sm.send_done && sm.recv_done) {
      sm.waiting = false;
      ++sm.round;
      if (sm.round >= spec_.rounds) {
        sm.finished = true;
        ++finished_count_;
        rt_.rankFinished(job_, r);
        return;  // no re-arm
      }
    }
  }
  armTick(r, rt_.cluster().engine().now() + rt_.config().time_slice);
}

std::uint64_t DetachedRing::dataDigest() const {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ull; };
  for (int r = 0; r < spec_.ranks; ++r) {
    const RankSm& sm = sms_[static_cast<std::size_t>(r)];
    mix(static_cast<std::uint64_t>(sm.round));
    mix(sm.finished ? 1 : 0);
    for (std::byte b : recv_bufs_[static_cast<std::size_t>(r)]) {
      mix(static_cast<std::uint64_t>(b));
    }
  }
  return h;
}

}  // namespace bcs::snapshot

#pragma once

// An mpi::Comm decorator that times every call the application makes into
// the message-passing layer: host time and simulated time per call, one
// span each.  It forwards every call unchanged, so the simulated schedule
// is the one the undecorated communicator produces (the driver checks
// that makespan and event counts match the untraced run).
//
// The composed collectives (alltoall, gather, ...) are not virtual in
// mpi::Comm: they run on this object and reach the backend through the
// point-to-point calls below, so they are recorded as those calls.

#include <map>
#include <string>

#include "bench.hpp"
#include "mpi/comm.hpp"

namespace perfbench {

struct OpStats {
  std::uint64_t calls = 0;
  Samples host_us;
  Samples sim_us;
};

/// Per-op-kind statistics shared by every rank's decorator.
using OpTable = std::map<std::string, OpStats>;

class TracedComm final : public bcs::mpi::Comm {
 public:
  TracedComm(bcs::mpi::Comm& inner, OpTable& ops, Tracer& tracer)
      : in_(inner), ops_(ops), tracer_(tracer) {}

  int rank() const override { return in_.rank(); }
  int size() const override { return in_.size(); }
  bcs::sim::SimTime now() const override { return in_.now(); }

  void compute(bcs::sim::Duration work) override {
    timed("compute", [&] { in_.compute(work); });
  }
  void send(const void* buf, std::size_t bytes, int dest, int tag) override {
    timed("send", [&] { in_.send(buf, bytes, dest, tag); });
  }
  void recv(void* buf, std::size_t bytes, int src, int tag,
            bcs::mpi::Status* status) override {
    timed("recv", [&] { in_.recv(buf, bytes, src, tag, status); });
  }
  bcs::mpi::Request isend(const void* buf, std::size_t bytes, int dest,
                          int tag) override {
    bcs::mpi::Request r;
    timed("isend", [&] { r = in_.isend(buf, bytes, dest, tag); });
    return r;
  }
  bcs::mpi::Request irecv(void* buf, std::size_t bytes, int src,
                          int tag) override {
    bcs::mpi::Request r;
    timed("irecv", [&] { r = in_.irecv(buf, bytes, src, tag); });
    return r;
  }
  void wait(bcs::mpi::Request& r, bcs::mpi::Status* status) override {
    timed("wait", [&] { in_.wait(r, status); });
  }
  bool test(bcs::mpi::Request& r, bcs::mpi::Status* status) override {
    bool done = false;
    timed("test", [&] { done = in_.test(r, status); });
    return done;
  }
  bool completed(const bcs::mpi::Request& r) const override {
    return in_.completed(r);
  }
  void waitall(std::span<bcs::mpi::Request> reqs) override {
    timed("waitall", [&] { in_.waitall(reqs); });
  }
  bool testall(std::span<bcs::mpi::Request> reqs) override {
    bool done = false;
    timed("testall", [&] { done = in_.testall(reqs); });
    return done;
  }
  bool probe(int src, int tag, bcs::mpi::Status* status,
             bool blocking) override {
    bool found = false;
    timed("probe", [&] { found = in_.probe(src, tag, status, blocking); });
    return found;
  }
  void barrier() override {
    timed("barrier", [&] { in_.barrier(); });
  }
  void bcast(void* buf, std::size_t bytes, int root) override {
    timed("bcast", [&] { in_.bcast(buf, bytes, root); });
  }
  void reduce(const void* contrib, void* result, std::size_t count,
              bcs::mpi::Datatype dt, bcs::mpi::ReduceOp op,
              int root) override {
    timed("reduce",
          [&] { in_.reduce(contrib, result, count, dt, op, root); });
  }
  void allreduce(const void* contrib, void* result, std::size_t count,
                 bcs::mpi::Datatype dt, bcs::mpi::ReduceOp op) override {
    timed("allreduce",
          [&] { in_.allreduce(contrib, result, count, dt, op); });
  }

 private:
  template <typename Fn>
  void timed(const char* op, Fn&& fn) {
    const int span = tracer_.open(op, in_.rank());
    const bcs::sim::SimTime sim0 = in_.now();
    const std::int64_t host0 = hostNs();
    fn();
    const std::int64_t host1 = hostNs();
    tracer_.close(span);
    OpStats& s = ops_[op];
    ++s.calls;
    s.host_us.add(static_cast<double>(host1 - host0) * 1e-3);
    s.sim_us.add(bcs::sim::toUsec(in_.now() - sim0));
  }

  bcs::mpi::Comm& in_;
  OpTable& ops_;
  Tracer& tracer_;
};

}  // namespace perfbench

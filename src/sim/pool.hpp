#pragma once

// A freelist pool for byte-buffer payloads.
//
// Collective execution (and anything else shipping payload copies through
// the simulated fabric) used to allocate a fresh
// shared_ptr<vector<std::byte>> per hop; across thousands of slices that is
// pure allocator churn.  The pool hands out the same shared_ptr-based
// handles, but the control block's deleter returns the vector (capacity
// intact) to a freelist instead of freeing it.
//
// Thread model: under parallel execution every worker thread acquires and
// releases payloads, and a buffer acquired on one shard's worker is often
// released on another's after a cross-shard handoff.  The freelist is
// therefore striped: each stripe is an independently spin-locked freelist
// sitting on its own cache line, and a thread hashes to a home stripe once
// (thread_local), so the common same-thread acquire/release path never
// contends with other workers.  Spinlocks (not mutexes) because the
// critical section is a couple of pointer moves.  A fiber may resume on
// another worker while a frame still holds a home stripe computed before
// the switch; that stripe is merely not this thread's, and the stripe lock
// keeps it correct.
//
// Lifetime: the freelist state is itself held by shared_ptr and captured by
// every deleter, so handles may outlive the pool object (events still queued
// in the engine when the owning Runtime dies drop their buffers safely).
// The full post-mortem sequence, audited because it is easy to get wrong:
//   1. The pool object dies; `state_` drops one reference, but every live
//      handle's deleter still holds one, so State survives.
//   2. A handle released after that parks its buffer in the orphaned
//      State's stripe exactly as before — recycling still "works", the
//      buffer just has no pool left to hand it out again.
//   3. When the last handle dies, its deleter runs, then the captured
//      shared_ptr<State> releases the final reference; the stripes'
//      unique_ptrs free every parked buffer.  No step touches the dead
//      pool object, so there is no use-after-free window and no leak
//      (tests/test_sim.cpp pins this under the sanitize preset).
// The State keeps an atomic count of outstanding handles (liveHandles())
// so callers can observe the contract; every wrap() increments it and the
// deleter decrements it, whichever thread — or pool lifetime — the release
// happens under.

#include <atomic>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

namespace bcs::sim {

class PayloadPool {
 public:
  using Buffer = std::vector<std::byte>;
  using Ptr = std::shared_ptr<Buffer>;

  /// Retaining more spare buffers than any realistic fan-out needs just
  /// pins memory; beyond this (per stripe) the deleter lets buffers die
  /// normally.
  static constexpr std::size_t kMaxSpare = 64;

  /// Power of two; comfortably more stripes than the engine runs workers,
  /// so two workers rarely share one even with an unlucky hash.
  static constexpr std::size_t kStripes = 8;

  PayloadPool() : state_(std::make_shared<State>()) {}

  /// An uninitialized (resized) buffer of `bytes` bytes.
  Ptr acquire(std::size_t bytes) {
    Buffer* raw = grab();
    raw->resize(bytes);
    return wrap(raw);
  }

  /// A buffer holding a copy of [data, data + bytes).
  Ptr acquire(const std::byte* data, std::size_t bytes) {
    Buffer* raw = grab();
    raw->assign(data, data + bytes);
    return wrap(raw);
  }

  /// Handles currently outstanding (acquired, deleter not yet run).  The
  /// count survives in the shared State, so it stays meaningful for
  /// handles that outlive the pool object.  Diagnostic use only.
  std::size_t liveHandles() const {
    return state_->live.load(std::memory_order_relaxed);
  }

  /// Total spare buffers across stripes.  Takes each stripe lock briefly;
  /// diagnostic use only.
  std::size_t spareBuffers() const {
    std::size_t total = 0;
    for (auto& stripe : state_->stripes) {
      LockGuard guard(stripe.busy);
      total += stripe.spare.size();
    }
    return total;
  }

 private:
  struct alignas(64) Stripe {
    mutable std::atomic_flag busy;  // default-initialized clear (C++20)
    std::vector<std::unique_ptr<Buffer>> spare;
  };

  struct State {
    Stripe stripes[kStripes];
    std::atomic<std::size_t> live{0};  // outstanding handles (see above)
  };

  struct LockGuard {
    explicit LockGuard(std::atomic_flag& flag) : flag_(flag) {
      while (flag_.test_and_set(std::memory_order_acquire)) {
        // Two pointer moves inside; spinning beats parking by a margin.
      }
    }
    ~LockGuard() { flag_.clear(std::memory_order_release); }
    LockGuard(const LockGuard&) = delete;
    LockGuard& operator=(const LockGuard&) = delete;
    std::atomic_flag& flag_;
  };

  static std::size_t homeStripe() {
    static thread_local const std::size_t home =
        std::hash<std::thread::id>{}(std::this_thread::get_id()) %
        kStripes;
    return home;
  }

  Buffer* grab() {
    Stripe& stripe = state_->stripes[homeStripe()];
    {
      LockGuard guard(stripe.busy);
      if (!stripe.spare.empty()) {
        Buffer* raw = stripe.spare.back().release();
        stripe.spare.pop_back();
        return raw;
      }
    }
    return new Buffer();
  }

  Ptr wrap(Buffer* raw) {
    state_->live.fetch_add(1, std::memory_order_relaxed);
    return Ptr(raw, [st = state_](Buffer* b) {
      st->live.fetch_sub(1, std::memory_order_relaxed);
      Stripe& stripe = st->stripes[homeStripe()];
      {
        LockGuard guard(stripe.busy);
        if (stripe.spare.size() < kMaxSpare) {
          b->clear();  // keeps capacity for the next acquire
          stripe.spare.emplace_back(b);
          return;
        }
      }
      delete b;
    });
  }

  std::shared_ptr<State> state_;
};

}  // namespace bcs::sim

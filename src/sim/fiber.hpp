#pragma once

// Fibers: blocking-style model code on top of the event engine.
//
// Application skeletons (SWEEP3D, NAS kernels, ...) are written as ordinary
// C++ functions that call blocking MPI operations.  Each simulated process
// runs on a Fiber — its own stack, switched to in user space on the thread
// that calls resume(), so exactly one of {engine, some fiber} executes on a
// thread at any instant.  This preserves the determinism of the
// single-threaded engine while letting model code keep a natural call stack
// (deeply nested blocking calls, as in the wavefront codes, would be painful
// as hand-written state machines).
//
// Lifecycle:  the engine resumes a fiber; the fiber runs until it calls
// yield() (typically via Process::block()) or returns; control then returns
// to the resumer.  A fiber destroyed before finishing is unwound by throwing
// FiberKilled through its stack.  The stack is mapped at the first resume()
// and unmapped once the body has finished, so a fiber that is never run
// costs nothing but its body.
//
// Thread affinity:  a fiber runs on whichever thread resumes it, and in a
// parallel run that can be a different worker from one resume to the next.
// The compiler may keep the address of a thread_local in a register across
// the yield() inside a frame, so model code must read thread_local state
// only through out-of-line functions (as the engine's worker context is
// read), never cache it in a frame that spans a switch.

#include <cstddef>
#include <exception>
#include <functional>

namespace bcs::sim {

/// Thrown through a fiber's stack to unwind it on forced termination.
/// Model code must not swallow this exception (catch(...) blocks must
/// rethrow).
struct FiberKilled {};

class Fiber {
 public:
  /// Usable stack per fiber: enough for every test, example and benchmark
  /// workload, under ASan too.  A PROT_NONE guard page below it turns an
  /// overflow into a fault instead of silent corruption.
  static constexpr std::size_t kStackSize = 256 * 1024;

  /// Creates a fiber that will run `body` once first resumed.
  explicit Fiber(std::function<void()> body);

  /// Force-unwinds the body if unfinished, then releases the stack.
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Runs the fiber on the calling thread until it yields or finishes.
  /// Must not be called from inside this fiber.  Rethrows any exception that
  /// escaped the fiber body.
  void resume();

  /// Suspends the calling fiber and returns control to its resumer.
  /// Must be called from inside the fiber body.
  void yield();

  /// True once the body has returned (or was unwound).
  bool finished() const { return finished_; }

 private:
  /// The stack mapping; the switch contexts and sanitizer bookkeeping live
  /// at its top, above the stack itself.  Defined in fiber.cpp.
  struct Stack;

  static void entry(unsigned hi, unsigned lo);
  void run();
  void switchIn();
  void switchOut(bool finishing);
  void enteredFiber();
  void releaseStack();

  std::function<void()> body_;
  Stack* stack_ = nullptr;  ///< mapped at the first resume()
  bool finished_ = false;
  bool kill_ = false;
  std::exception_ptr error_;
};

}  // namespace bcs::sim

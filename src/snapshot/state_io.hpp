#pragma once

// The state serializer behind capture()/restore() (checkpoint.hpp).
//
// StateIO is a friend of every stateful simulator class (Engine, Rng,
// FaultInjector, Fabric, BcsCore, Storm, Runtime, Verifier, DetachedRing):
// it reads their privates at capture and writes them back into freshly
// constructed objects at restore.  Friendship instead of public state APIs
// keeps the snapshot surface out of each class's contract — the serializer
// versions with the repo, not with callers.
//
// Each serialized struct's fields are listed once, in one io(ar, x)
// description that an Encoder runs to save and a Decoder runs to load
// (wire.hpp), and the sections are one list of (name, body) pairs that
// saveAll and restoreAll both walk.  A new field is one line in its io();
// the static_asserts on the stats structs fail the build until a new
// counter is added to its list.
//
// Pending engine events are never serialized (they are closures).  Capture
// records each timer's *logical* deadline (watchdog_at, next_round_at_,
// inspect_at_, next_tick_at); restore warps the fresh engine's clock to the
// capture instant and re-arms every timer from the recorded deadlines, in a
// canonical order whose correctness rests on all re-armed events firing at
// pairwise-distinct times (the off-grid cadences documented in DESIGN.md
// §8).  A final resume event at the capture instant runs the post-capture
// tail of the slice boundary (Runtime::resumeFromRestore), so every event
// the continuation schedules draws a sequence number *after* all re-armed
// events — exactly the pending-before-boundary < scheduled-at-boundary
// order the interrupted run had.

#include "snapshot/checkpoint.hpp"
#include "snapshot/format.hpp"
#include "snapshot/wire.hpp"

namespace bcs::snapshot {

class StateIO {
 public:
  /// Capture-time guards: throws SnapshotError("capture", …) when the
  /// simulation holds state that cannot round-trip (live fibers, an
  /// election or active collective in flight, queued event waiters,
  /// un-dispatched boundary work).
  static void checkCapturable(Simulation& sim);

  /// Serializes every subsystem into `w` (one section each).
  static void saveAll(Simulation& sim, SnapshotWriter& w);

  /// Restores a bare-built simulation (checkpoint.cpp's buildBare) from the
  /// reader's sections, then re-arms all timers and the resume event.
  static void restoreAll(Simulation& sim, const SnapshotReader& r);

 private:
  /// The io() descriptions and the section list (state_io.cpp).  A nested
  /// class shares StateIO's friendship, so no description is declared here.
  struct Io;
};

}  // namespace bcs::snapshot

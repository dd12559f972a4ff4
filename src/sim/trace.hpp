#pragma once

// Lightweight event tracing.
//
// The BCS paper argues that global coordination makes the system "much
// simpler to ... debug and model"; the trace facility is how this repository
// demonstrates that: every microstrobe, descriptor exchange, match and DMA
// can be recorded and asserted on in tests.  Tracing is off by default and
// costs one branch per record when disabled.
//
// A record is typed: a kind, a node, up to kTraceFields integer fields and
// an optional static name.  Each kind is declared once, as a constexpr
// TraceKind by the layer that emits it (net/fabric.hpp, bcs/core.hpp,
// bcsmpi/runtime.hpp, storm/storm.hpp); tools select records by comparing
// `record.kind` with the kind's address and read the fields directly.  Text
// exists only in dump() (and the stderr echo), which renders each record
// through its kind's format.  Free text is kept for what really is text:
// application records, verifier/race findings and the fault-plan line.

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/time.hpp"

namespace bcs::sim {

enum class TraceCategory : std::uint8_t {
  kEngine,
  kCpu,
  kNet,
  kBcsCore,
  kStrobe,      // SS/SR microstrobes and microphase transitions
  kDescriptor,  // descriptor post/exchange/match
  kDma,         // point-to-point payload movement
  kCollective,  // CH/RH activity
  kStorm,       // MM/NM resource-management traffic
  kFault,       // injected faults, retransmissions, evictions, recovery
  kFailover,    // control-plane failover: watchdogs, elections, rejoins
  kVerify,      // protocol-verifier findings (src/verify)
  kApp,
  kRace,        // shard-ownership race-detector findings (src/race)
  kEpochRace,   // RMA epoch-race findings (src/verify, DESIGN.md §11)
};

const char* traceCategoryName(TraceCategory c);

/// One kind of trace record.  In `format`, "{}" renders the next integer
/// field, "{t}" the next integer field through formatTime, "{s}" the
/// record's static name and "{m}" its free text.
struct TraceKind {
  TraceCategory category;
  const char* format;
};

/// Integer fields per record (the RMA apply record needs all five).
inline constexpr std::size_t kTraceFields = 5;

struct TraceRecord {
  SimTime time = 0;
  TraceCategory category = TraceCategory::kEngine;
  int node = -1;                    // -1 when not node-specific
  const TraceKind* kind = nullptr;  // nullptr: a free-text record
  std::array<std::int64_t, kTraceFields> fields{};
  const char* name = nullptr;  // "{s}"
  std::string text;            // "{m}", or all of a free-text record
};

class Trace {
 public:
  /// Enables collection (optionally mirrored to stderr for live debugging).
  void enable(bool echo_to_stderr = false);
  void disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }

  /// Records one typed entry.  Integer arguments fill the kind's "{}" and
  /// "{t}" fields in order, a `const char*` is the static name and a
  /// std::string the free text; nothing is formatted here.  Inside a
  /// parallel engine window (see Engine::run(ParallelPolicy)) the record is
  /// deferred into the worker's buffer and spliced into records_ at the next
  /// barrier in canonical event order, so the final record stream is
  /// identical to a serial run.  The stderr echo happens at commit time.
  template <class... Args>
  void record(SimTime t, const TraceKind& kind, int node,
              const Args&... args) {
    static_assert((std::is_integral_v<Args> + ... + 0) <= kTraceFields);
    if (!enabled_) return;
    TraceRecord r{t, kind.category, node, &kind, {}, nullptr, {}};
    [[maybe_unused]] std::size_t field = 0;
    (set(r, field, args), ...);
    commit(std::move(r));
  }

  /// Records one free-text entry (application records, findings).
  void record(SimTime t, TraceCategory cat, int node, std::string text);

  const std::vector<TraceRecord>& records() const { return records_; }
  void clear() { records_.clear(); }

  /// Number of records matching a predicate — handy in protocol tests.
  std::size_t count(const std::function<bool(const TraceRecord&)>& pred) const;

  /// Renders all records as text ("[time] CATEGORY node: message").
  std::string dump() const { return dump(records_.size()); }
  /// Renders the first `n` records only (a trace prefix, e.g. up to a
  /// snapshot's capture instant).
  std::string dump(std::size_t n) const;

 private:
  template <class I>
  static void set(TraceRecord& r, std::size_t& field, const I& v) {
    static_assert(std::is_integral_v<I>, "trace field must be an integer");
    r.fields[field++] = static_cast<std::int64_t>(v);
  }
  static void set(TraceRecord& r, std::size_t&, const char* name) {
    r.name = name;
  }
  static void set(TraceRecord& r, std::size_t&, const std::string& text) {
    r.text = text;
  }

  /// Commit thunk handed to the engine's deferral hook (type-erased so the
  /// engine translation unit never names Trace; see detail::TraceCommitFn).
  static void commitThunk(void* trace, TraceRecord&& r);
  void commit(TraceRecord&& r);
  void append(TraceRecord&& r);

  bool enabled_ = false;
  bool echo_ = false;
  std::vector<TraceRecord> records_;
};

}  // namespace bcs::sim

#pragma once

// Pointer swizzling for snapshots.
//
// Descriptors and chunk GetOps hold raw pointers into application buffers.
// A snapshot cannot store pointers, so checkpointable workloads register
// every communication buffer here under a stable id; capture rewrites each
// pointer as (buffer id, offset) and restore resolves it against the fresh
// process's registry.  A buffer's id is its registration index, so the
// fresh process gets the same ids by registering the same buffers in the
// same (construction) order.  Buffer *contents* are serialized too: a
// restored run must re-send exactly the bytes the interrupted run would have.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "snapshot/error.hpp"
#include "snapshot/wire.hpp"

namespace bcs::snapshot {

inline constexpr std::uint32_t kNullBuffer = 0xffffffffu;

/// A serializable stand-in for a pointer into a registered buffer.
struct BufRef {
  std::uint32_t id = kNullBuffer;
  std::uint64_t offset = 0;
};

class BufferRegistry {
 public:
  /// Registers a buffer; returns its id (the registration index).
  std::uint32_t add(std::byte* data, std::size_t size) {
    entries_.push_back(Entry{data, size});
    return static_cast<std::uint32_t>(entries_.size() - 1);
  }

  /// Pointer → reference.  Null maps to kNullBuffer; a pointer outside every
  /// registered buffer means the workload forgot to register one — refuse
  /// the capture rather than snapshot a dangling address.
  BufRef refOf(const std::byte* p) const {
    if (p == nullptr) return BufRef{};
    for (std::uint32_t id = 0; id < entries_.size(); ++id) {
      const Entry& e = entries_[id];
      if (p >= e.data && p < e.data + e.size) {
        return BufRef{id, static_cast<std::uint64_t>(p - e.data)};
      }
    }
    // One-past-the-end of a buffer is a valid position for a fully-consumed
    // chunk pointer; resolve it against the owning buffer.
    for (std::uint32_t id = 0; id < entries_.size(); ++id) {
      const Entry& e = entries_[id];
      if (p == e.data + e.size) return BufRef{id, e.size};
    }
    throw SnapshotError("buffers", "pointer into an unregistered buffer");
  }

  std::byte* resolve(BufRef ref) const {
    if (ref.id == kNullBuffer) return nullptr;
    if (ref.id >= entries_.size()) {
      throw SnapshotError("buffers",
                          "unknown buffer id " + std::to_string(ref.id));
    }
    const Entry& e = entries_[ref.id];
    if (ref.offset > e.size) {
      throw SnapshotError("buffers", "offset " + std::to_string(ref.offset) +
                                         " past end of buffer " +
                                         std::to_string(ref.id));
    }
    return e.data + ref.offset;
  }

  /// Swizzles one pointer field: (buffer id, offset) on the wire, resolved
  /// against this registry on load.
  template <class Ar, class T>
  void ref(Ar& ar, T*& p) const {
    BufRef r = Ar::kLoading ? BufRef{} : refOf(p);
    ar(r.id, r.offset);
    if constexpr (Ar::kLoading) p = resolve(r);
  }

  /// Buffer contents, in registration order.  The fresh registry must hold
  /// the same buffers (same ids, same sizes).
  template <class Ar>
  void contents(Ar& ar) {
    fixed(ar, entries_, "buffer", [this, &ar](Entry& ent) {
      const auto want = static_cast<std::uint32_t>(&ent - entries_.data());
      std::uint32_t id = want;
      std::uint64_t size = ent.size;
      ar(id, size);
      if constexpr (Ar::kLoading) {
        if (id != want || size != ent.size) {
          ar.fail("buffer " + std::to_string(want) + " shape mismatch");
        }
      }
      ar.bytes(ent.data, ent.size);
    });
  }

 private:
  struct Entry {
    std::byte* data;
    std::size_t size;
  };
  std::vector<Entry> entries_;
};

}  // namespace bcs::snapshot

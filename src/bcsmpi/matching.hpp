#pragma once

// Envelope-hash indexes for MSM descriptor matching.
//
// The Buffer Receiver matches posted receives against arrived send
// descriptors once per slice.  A naive scan is O(receives x sends); these
// indexes bucket both sides by the message envelope (job, dst_rank, src,
// tag) so a slice's matching work is proportional to the number of matches
// (plus the wildcard receives, which by MPI semantics can pair with any
// source/tag and therefore live on a side-list that is scanned in seq
// order).
//
// Determinism invariants (see DESIGN.md §"Simulator internals"):
//  * the canonical store is a std::map keyed by the descriptor's global
//    posting sequence, so every iteration order used for matching, eviction
//    scrubbing and snapshots is the posting order — never hash order;
//  * the unordered_map buckets are only ever used for O(1) *lookup* of a
//    single envelope's seq list; nothing iterates them except
//    forEachEnvelope(), whose results are order-normalized by the caller.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <map>
#include <vector>

#include "bcsmpi/descriptors.hpp"
#include "mpi/types.hpp"

namespace bcs::bcsmpi {

/// MPI point-to-point matching: wildcard tag matches only application
/// (non-negative) tags; internal negative tags must match exactly (see
/// mpi/comm.hpp).
inline bool envelopeMatches(const RecvDescriptor& r, const SendDescriptor& s) {
  return r.job == s.job && r.dst_rank == s.dst_rank &&
         (r.want_src == mpi::kAnySource || r.want_src == s.src_rank) &&
         (r.want_tag == s.tag || (r.want_tag == mpi::kAnyTag && s.tag >= 0));
}

/// Fully concrete message envelope.  Send descriptors always have one;
/// receive descriptors have one unless they use a wildcard.
struct EnvelopeKey {
  int job = 0;
  int dst_rank = 0;
  int src_rank = 0;
  int tag = 0;
  bool operator==(const EnvelopeKey&) const = default;
};

struct EnvelopeHash {
  std::size_t operator()(const EnvelopeKey& k) const {
    // FNV-1a over the four ints; cheap and good enough for bucket spread.
    std::uint64_t h = 1469598103934665603ull;
    for (std::uint64_t v : {static_cast<std::uint64_t>(k.job),
                            static_cast<std::uint64_t>(k.dst_rank),
                            static_cast<std::uint64_t>(k.src_rank),
                            static_cast<std::uint64_t>(k.tag)}) {
      h = (h ^ v) * 1099511628211ull;
    }
    return static_cast<std::size_t>(h);
  }
};

/// Arrived send descriptors, indexed by envelope.  Replaces the BR's
/// `remote_sends` deque: insertion is O(log n), and finding the lowest-seq
/// send matching a concrete receive is an O(1) bucket lookup.
class SendMatchIndex {
 public:
  using value_type = SendDescriptor;

  void insert(const SendDescriptor& s) {
    auto& bucket = buckets_[keyOf(s)];
    // Keep each bucket sorted by seq.  Descriptors normally arrive in seq
    // order, but a retransmitted (older) descriptor can land after younger
    // ones, so insert positionally rather than push_back.
    bucket.insert(std::lower_bound(bucket.begin(), bucket.end(), s.seq),
                  s.seq);
    by_seq_.emplace(s.seq, s);
  }

  /// The matching send with the lowest posting seq, or nullptr.  Concrete
  /// receives cost one hash lookup; wildcard receives scan the canonical
  /// store in seq order (first hit is the answer).
  const SendDescriptor* lowestSeqMatch(const RecvDescriptor& r) const {
    if (r.want_src != mpi::kAnySource && r.want_tag != mpi::kAnyTag) {
      auto it = buckets_.find(
          EnvelopeKey{r.job, r.dst_rank, r.want_src, r.want_tag});
      if (it == buckets_.end() || it->second.empty()) return nullptr;
      return &by_seq_.at(it->second.front());
    }
    for (const auto& [seq, s] : by_seq_) {
      if (envelopeMatches(r, s)) return &s;
    }
    return nullptr;
  }

  /// Removes and returns the descriptor with posting seq `seq`.
  SendDescriptor take(std::uint64_t seq) {
    auto it = by_seq_.find(seq);
    SendDescriptor s = std::move(it->second);
    by_seq_.erase(it);
    auto& bucket = buckets_[keyOf(s)];
    bucket.erase(std::lower_bound(bucket.begin(), bucket.end(), seq));
    if (bucket.empty()) buckets_.erase(keyOf(s));
    return s;
  }

  bool empty() const { return by_seq_.empty(); }
  std::size_t size() const { return by_seq_.size(); }
  void clear() {
    by_seq_.clear();
    buckets_.clear();
  }

  /// Visits every descriptor in posting (seq) order.
  template <typename F>
  void forEach(F&& f) const {
    for (const auto& [seq, s] : by_seq_) f(s);
  }

  /// Number of distinct source ranks with at least one arrived send that
  /// matches receive `r` — the wildcard-race metric (src/verify): a
  /// kAnySource receive matched while this exceeds 1 depends on descriptor
  /// arrival order for its result.  Scans the canonical seq-ordered store;
  /// only called with the verifier attached, never on the match hot path.
  std::size_t countEligibleSources(const RecvDescriptor& r) const {
    std::vector<int> srcs;
    for (const auto& [seq, s] : by_seq_) {
      if (envelopeMatches(r, s)) srcs.push_back(s.src_rank);
    }
    std::sort(srcs.begin(), srcs.end());
    srcs.erase(std::unique(srcs.begin(), srcs.end()), srcs.end());
    return srcs.size();
  }

  /// Removes every descriptor for which `pred` returns true, visiting in
  /// posting (seq) order.  `pred` may have side effects (eviction scrubbing
  /// fails the affected requests as it goes).
  template <typename Pred>
  void eraseIf(Pred&& pred) {
    for (auto it = by_seq_.begin(); it != by_seq_.end();) {
      if (!pred(it->second)) {
        ++it;
        continue;
      }
      auto& bucket = buckets_[keyOf(it->second)];
      bucket.erase(
          std::lower_bound(bucket.begin(), bucket.end(), it->first));
      if (bucket.empty()) buckets_.erase(keyOf(it->second));
      it = by_seq_.erase(it);
    }
  }

  /// Visits each distinct envelope present in the index (hash order — the
  /// caller must order-normalize anything derived from this).
  template <typename F>
  void forEachEnvelope(F&& f) const {
    for (const auto& [key, bucket] : buckets_) f(key);
  }

 private:
  static EnvelopeKey keyOf(const SendDescriptor& s) {
    return EnvelopeKey{s.job, s.dst_rank, s.src_rank, s.tag};
  }

  std::map<std::uint64_t, SendDescriptor> by_seq_;  ///< canonical, seq order
  // det-ok: O(1) envelope lookup only; the sole iteration (forEachEnvelope)
  // is order-normalized by the caller's sort over the derived seq list
  std::unordered_map<EnvelopeKey, std::vector<std::uint64_t>, EnvelopeHash>
      buckets_;
};

/// Matching-eligible receive descriptors.  Concrete receives are bucketed by
/// envelope; wildcard receives (any-source and/or any-tag) live on a
/// seq-ordered side-list since they can pair with any arriving send.
class RecvMatchIndex {
 public:
  using value_type = RecvDescriptor;

  void insert(const RecvDescriptor& r) {
    if (isWildcard(r)) {
      wildcards_.insert(
          std::lower_bound(wildcards_.begin(), wildcards_.end(), r.seq),
          r.seq);
    } else {
      auto& bucket = buckets_[keyOf(r)];
      bucket.insert(std::lower_bound(bucket.begin(), bucket.end(), r.seq),
                    r.seq);
    }
    by_seq_.emplace(r.seq, r);
  }

  const RecvDescriptor* find(std::uint64_t seq) const {
    auto it = by_seq_.find(seq);
    return it == by_seq_.end() ? nullptr : &it->second;
  }

  RecvDescriptor take(std::uint64_t seq) {
    auto it = by_seq_.find(seq);
    RecvDescriptor r = std::move(it->second);
    by_seq_.erase(it);
    if (isWildcard(r)) {
      wildcards_.erase(
          std::lower_bound(wildcards_.begin(), wildcards_.end(), seq));
    } else {
      auto& bucket = buckets_[keyOf(r)];
      bucket.erase(std::lower_bound(bucket.begin(), bucket.end(), seq));
      if (bucket.empty()) buckets_.erase(keyOf(r));
    }
    return r;
  }

  /// Seqs of concrete receives posted for this exact envelope (ascending),
  /// or nullptr if none.
  const std::vector<std::uint64_t>* bucketFor(const EnvelopeKey& key) const {
    auto it = buckets_.find(key);
    return it == buckets_.end() ? nullptr : &it->second;
  }

  /// Seqs of wildcard receives, ascending.
  const std::vector<std::uint64_t>& wildcards() const { return wildcards_; }

  bool empty() const { return by_seq_.empty(); }
  std::size_t size() const { return by_seq_.size(); }
  void clear() {
    by_seq_.clear();
    buckets_.clear();
    wildcards_.clear();
  }

  template <typename F>
  void forEach(F&& f) const {
    for (const auto& [seq, r] : by_seq_) f(r);
  }

  template <typename Pred>
  void eraseIf(Pred&& pred) {
    for (auto it = by_seq_.begin(); it != by_seq_.end();) {
      if (!pred(it->second)) {
        ++it;
        continue;
      }
      const RecvDescriptor& r = it->second;
      if (isWildcard(r)) {
        wildcards_.erase(
            std::lower_bound(wildcards_.begin(), wildcards_.end(), it->first));
      } else {
        auto& bucket = buckets_[keyOf(r)];
        bucket.erase(
            std::lower_bound(bucket.begin(), bucket.end(), it->first));
        if (bucket.empty()) buckets_.erase(keyOf(r));
      }
      it = by_seq_.erase(it);
    }
  }

 private:
  static bool isWildcard(const RecvDescriptor& r) {
    return r.want_src == mpi::kAnySource || r.want_tag == mpi::kAnyTag;
  }
  static EnvelopeKey keyOf(const RecvDescriptor& r) {
    return EnvelopeKey{r.job, r.dst_rank, r.want_src, r.want_tag};
  }

  std::map<std::uint64_t, RecvDescriptor> by_seq_;
  // det-ok: O(1) envelope lookup only (bucketFor); never iterated, and each
  // bucket's seq list is kept sorted independently of hash order
  std::unordered_map<EnvelopeKey, std::vector<std::uint64_t>, EnvelopeHash>
      buckets_;
  std::vector<std::uint64_t> wildcards_;
};

}  // namespace bcs::bcsmpi

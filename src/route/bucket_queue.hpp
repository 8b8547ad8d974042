/// \file bucket_queue.hpp
/// \brief Monotone bucket priority queue for the maze Dijkstra.
///
/// Replaces the binary heap (std::push_heap/std::pop_heap over
/// pair<double, node>) in route_maze with Dial-style buckets of width 1.0 —
/// valid because every maze edge cost is >= 1.0 by construction
/// (cost = 1.0 + history [+ overflow penalty], all terms non-negative).
///
/// Pop-order equivalence with the heap (DESIGN.md §15): the heap pops
/// entries in globally ascending (distance, node) order — Dijkstra's
/// monotonicity makes the pop sequence sorted, and the pair comparator
/// breaks distance ties by the smaller node id. Here, an entry with
/// distance d lands in bucket floor(d). While bucket k drains, every pop
/// has d in [k, k+1), so a relaxation pushes nd = d + cost >= d + 1.0,
/// which lands in bucket floor(nd) >= k+1: a draining bucket never
/// receives entries. Each bucket is therefore complete when its first
/// entry pops, and sorting it ascending by (distance, node) at that moment
/// reproduces the heap's pop order exactly — including stale entries,
/// which pop in the same position and are skipped by the same
/// distance-check the heap version used. Results are bit-identical.
///
/// Buckets live in a power-of-two ring indexed by absolute bucket number;
/// all storage is reused across searches (begin() clears only the buckets
/// the previous search touched), so steady-state maze routing does not
/// allocate.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace ppacd::route {

class BucketQueue {
 public:
  /// (distance, node); ordered exactly like the old heap entries.
  using Entry = std::pair<double, std::int32_t>;

  /// Minimum edge cost the monotonicity argument relies on (== bucket
  /// width). Callers must not push d2 < d1 + kMinEdgeCost from a popped d1.
  static constexpr double kMinEdgeCost = 1.0;

  /// Largest ring span grow() accepts. Router edge costs (1 + history +
  /// penalty x overflow) stay orders of magnitude below it.
  static constexpr std::uint64_t kMaxSpan = std::uint64_t{1} << 20;

  /// Start a new search (distances from 0). O(buckets touched last time).
  void begin() {
    for (const std::uint64_t b : touched_) ring_[b & mask_].clear();
    touched_.clear();
    if (ring_.empty()) grow(64);
    cur_ = 0;
    drain_pos_ = 0;
    drain_size_ = 0;
    live_ = 0;
  }

  void push(double d, std::int32_t node) {
    const std::uint64_t b = static_cast<std::uint64_t>(d);
    PPACD_DCHECK(b > cur_ || drain_size_ == 0,
                 "push into draining bucket " << b << " at " << cur_);
    PPACD_DCHECK(b >= cur_, "non-monotone push: bucket " << b << " while draining "
                                                         << cur_);
    if (b - cur_ >= ring_.size()) grow(b - cur_ + 1);
    std::vector<Entry>& bucket = ring_[b & mask_];
    if (bucket.empty()) touched_.push_back(b);
    bucket.emplace_back(d, node);
    ++live_;
  }

  /// Pops the globally smallest (distance, node) entry; false when empty.
  /// The fast path reads a cached pointer into the draining bucket: valid
  /// because pushes never land in the draining bucket (see above) and
  /// grow() moves the inner vectors, which keeps their heap buffers.
  bool pop(Entry& out) {
    if (drain_pos_ < drain_size_) {
      out = drain_data_[drain_pos_++];
      --live_;
      return true;
    }
    return pop_slow(out);
  }

 private:
  bool pop_slow(Entry& out) {
    if (drain_size_ != 0) {  // retire the exhausted bucket
      ring_[cur_ & mask_].clear();
      drain_size_ = 0;
      drain_pos_ = 0;
      ++cur_;
    }
    while (live_ > 0) {
      std::vector<Entry>& bucket = ring_[cur_ & mask_];
      if (!bucket.empty()) {
        if (bucket.size() > 1) std::sort(bucket.begin(), bucket.end());
        drain_data_ = bucket.data();
        drain_size_ = bucket.size();
        drain_pos_ = 1;
        out = drain_data_[0];
        --live_;
        return true;
      }
      ++cur_;
    }
    return false;
  }

  void grow(std::uint64_t span) {
    // A real span is about the largest edge cost. A huge one is a wrapped
    // `b - cur_` from a push behind the draining bucket, and doubling
    // towards it would never terminate.
    PPACD_CHECK(span <= kMaxSpan, "bucket span " << span << " at " << cur_);
    if (span > kMaxSpan) return;
    std::size_t size = ring_.empty() ? 64 : ring_.size();
    while (size < span) size <<= 1;
    if (size == ring_.size()) return;
    std::vector<std::vector<Entry>> next(size);
    const std::size_t next_mask = size - 1;
    if (!ring_.empty()) {
      for (const std::uint64_t b : touched_) {
        // A retired bucket's slot may already hold a live bucket
        // b + ring_.size(); moving it under b's index would strand those
        // entries behind cur_.
        if (b < cur_) continue;
        std::vector<Entry>& old = ring_[b & mask_];
        if (!old.empty()) next[b & next_mask] = std::move(old);
      }
    }
    ring_ = std::move(next);
    mask_ = next_mask;
  }

  std::vector<std::vector<Entry>> ring_;  ///< bucket b lives at ring_[b & mask_]
  std::vector<std::uint64_t> touched_;    ///< buckets used since begin()
  std::size_t mask_ = 0;
  std::uint64_t cur_ = 0;        ///< absolute index of the draining bucket
  const Entry* drain_data_ = nullptr;  ///< cached storage of that bucket
  std::size_t drain_pos_ = 0;    ///< next entry within the draining bucket
  std::size_t drain_size_ = 0;   ///< entry count of the draining bucket
  std::size_t live_ = 0;         ///< undrained entries across all buckets
};

}  // namespace ppacd::route

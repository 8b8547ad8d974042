/// \file arena.hpp
/// \brief Bump allocator for per-iteration numeric scratch (CG vectors,
/// density grids, router path buffers).
///
/// `alloc<T>(n)` hands out a `std::span<T>` carved from a chain of large
/// blocks; `reset()` rewinds the whole arena in O(1). After a reset that
/// needed more than one block, the chain is coalesced into a single block of
/// the combined size, so steady-state use settles into zero heap traffic:
/// every iteration allocates the same spans from the same block.
/// `bytes_peak()` and `reuse_count()` report peak usage and reuse.
///
/// Restricted to trivially-destructible T (the arena never runs
/// destructors); spans come back zero-initialized so callers can accumulate
/// into them directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace ppacd::util {

class Arena {
 public:
  explicit Arena(std::size_t initial_bytes = 0) {
    if (initial_bytes > 0) add_block(initial_bytes);
  }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// A zeroed span of `count` T. Alignment is handled per allocation.
  template <typename T>
  std::span<T> alloc(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena never runs destructors");
    if (count == 0) return {};
    void* p = alloc_bytes(count * sizeof(T), alignof(T));
    std::memset(p, 0, count * sizeof(T));
    return {static_cast<T*>(p), count};
  }

  /// Rewinds to empty in O(1). If the previous cycle spilled past the first
  /// block, the chain is replaced by one block sized for the whole cycle, so
  /// the next cycle runs out of a single allocation.
  void reset() {
    if (blocks_.size() > 1) {
      std::size_t total = 0;
      for (const Block& b : blocks_) total += b.size;
      blocks_.clear();
      add_block(total);
    } else {
      ++reuse_count_;
    }
    if (!blocks_.empty()) blocks_.front().used = 0;
    live_ = 0;
  }

  /// High-water mark of live bytes over the arena's lifetime.
  std::size_t bytes_peak() const { return bytes_peak_; }
  /// Resets that recycled the existing block without any heap traffic.
  std::uint64_t reuse_count() const { return reuse_count_; }
  /// Total bytes currently reserved across blocks.
  std::size_t bytes_reserved() const {
    std::size_t total = 0;
    for (const Block& b : blocks_) total += b.size;
    return total;
  }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  void add_block(std::size_t bytes) {
    Block b;
    b.size = bytes < kMinBlock ? kMinBlock : bytes;
    b.data = std::make_unique<std::byte[]>(b.size);
    blocks_.push_back(std::move(b));
  }

  void* alloc_bytes(std::size_t bytes, std::size_t align) {
    if (blocks_.empty()) add_block(bytes);
    Block* b = &blocks_.back();
    std::size_t offset = (b->used + align - 1) / align * align;
    if (offset + bytes > b->size) {
      // Grow geometrically so long cycles converge to few blocks fast.
      add_block(bytes > b->size ? 2 * bytes : 2 * b->size);
      b = &blocks_.back();
      offset = 0;
    }
    b->used = offset + bytes;
    live_ += bytes;
    if (live_ > bytes_peak_) bytes_peak_ = live_;
    // new[] storage is aligned for every fundamental type; `offset` keeps the
    // requested alignment within the block.
    return b->data.get() + offset;
  }

  static constexpr std::size_t kMinBlock = 4096;

  std::vector<Block> blocks_;
  std::size_t live_ = 0;
  std::size_t bytes_peak_ = 0;
  std::uint64_t reuse_count_ = 0;
};

}  // namespace ppacd::util

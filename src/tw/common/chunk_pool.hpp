#pragma once
// Chunked object pool addressed by dense u32 ids.
//
// Anything that must outlive the call that made it — a queued request
// node, a read result waiting for its completion event, a request in
// XBar transit — is parked here, and the event that later needs it
// captures the u32 id. That keeps every simulator callback inside its
// 48-byte inline budget. Chunks never move, so references stay valid
// across growth, and freed ids are recycled last-in first-out, so the
// steady state performs no heap allocation.

#include <memory>
#include <utility>
#include <vector>

#include "tw/common/assert.hpp"
#include "tw/common/types.hpp"

namespace tw {

/// Chunked object pool addressed by dense u32 ids. References returned by
/// operator[] stay valid across alloc() growth (chunks never move).
template <class T, u32 kChunkSizeLog2 = 8>
class ChunkPool {
 public:
  static constexpr u32 kChunkSize = u32{1} << kChunkSizeLog2;

  T& operator[](u32 id) {
    TW_ASSERT(id < next_);
    return chunks_[id >> kChunkSizeLog2][id & (kChunkSize - 1)];
  }
  const T& operator[](u32 id) const {
    TW_ASSERT(id < next_);
    return chunks_[id >> kChunkSizeLog2][id & (kChunkSize - 1)];
  }

  /// Take a slot: recycles the most recently freed id, else appends (and
  /// grows by one chunk when the current chunk is exhausted).
  u32 alloc() {
    if (!free_.empty()) {
      const u32 id = free_.back();
      free_.pop_back();
      return id;
    }
    if ((next_ & (kChunkSize - 1)) == 0) {
      chunks_.push_back(std::make_unique<T[]>(kChunkSize));
    }
    return next_++;
  }

  /// Return a slot to the pool. The object is left as-is (recycled slots
  /// are overwritten by the next user).
  void release(u32 id) {
    TW_ASSERT(id < next_);
    free_.push_back(id);
  }

  /// Park `value` in a fresh slot (copied or moved straight in) and
  /// return its id.
  template <class U>
  u32 put(U&& value) {
    const u32 id = alloc();
    (*this)[id] = std::forward<U>(value);
    return id;
  }

  /// Move the value out of slot `id` and release the slot.
  T take(u32 id) {
    T value = std::move((*this)[id]);
    release(id);
    return value;
  }

  /// Slots currently handed out.
  u32 live() const { return next_ - static_cast<u32>(free_.size()); }
  /// Slots ever created (high-water mark).
  u32 allocated() const { return next_; }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::vector<u32> free_;  ///< LIFO recycler
  u32 next_ = 0;
};

}  // namespace tw

#pragma once
// Index-linked intrusive FIFO lists over chunk-pooled nodes.
//
// The memory controller keeps every queued request in one pooled node and
// threads that node onto two lists at once: a global age-ordered FIFO and
// a per-bank (or per-subarray) FIFO. Index links instead of pointers keep
// the node compact and let the 48-byte inline event callbacks carry list
// positions; the chunked pool gives stable node references across growth
// and recycles slots through a LIFO free list, so the steady-state
// enqueue/dequeue path performs zero heap allocations (the same
// discipline as the simulator's event-node pool).
//
// A node participates in k lists by embedding k ListLink members; each
// IndexList is bound to one member at compile time. Lists never own
// nodes — the caller frees a node back to the pool only after unlinking
// it from every list it is on.

#include <memory>
#include <vector>

#include "tw/common/assert.hpp"
#include "tw/common/types.hpp"

namespace tw {

/// Sentinel "no node" index.
inline constexpr u32 kNilIndex = 0xFFFFFFFFu;

/// One list membership embedded in a pooled node.
struct ListLink {
  u32 prev = kNilIndex;
  u32 next = kNilIndex;
};

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

  /// Slots currently handed out.
  u32 live() const { return next_ - static_cast<u32>(free_.size()); }
  /// Slots ever created (high-water mark).
  u32 allocated() const { return next_; }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::vector<u32> free_;  ///< LIFO recycler
  u32 next_ = 0;
};

/// Intrusive doubly-linked FIFO bound to one ListLink member of Node.
/// All operations are O(1); iteration follows the link member directly.
template <class Node, ListLink Node::* Link>
class IndexList {
 public:
  bool empty() const { return size_ == 0; }
  u32 size() const { return size_; }
  u32 head() const { return head_; }
  u32 tail() const { return tail_; }

  template <class Pool>
  void push_back(Pool& pool, u32 id) {
    ListLink& link = pool[id].*Link;
    link.prev = tail_;
    link.next = kNilIndex;
    if (tail_ != kNilIndex) {
      (pool[tail_].*Link).next = id;
    } else {
      head_ = id;
    }
    tail_ = id;
    ++size_;
  }

  /// Link `id` in front of `pos` (kNilIndex appends).
  template <class Pool>
  void insert_before(Pool& pool, u32 pos, u32 id) {
    if (pos == kNilIndex) {
      push_back(pool, id);
      return;
    }
    ListLink& link = pool[id].*Link;
    ListLink& at = pool[pos].*Link;
    link.prev = at.prev;
    link.next = pos;
    if (at.prev != kNilIndex) {
      (pool[at.prev].*Link).next = id;
    } else {
      head_ = id;
    }
    at.prev = id;
    ++size_;
  }

  template <class Pool>
  void erase(Pool& pool, u32 id) {
    TW_ASSERT(size_ > 0);
    ListLink& link = pool[id].*Link;
    if (link.prev != kNilIndex) {
      (pool[link.prev].*Link).next = link.next;
    } else {
      head_ = link.next;
    }
    if (link.next != kNilIndex) {
      (pool[link.next].*Link).prev = link.prev;
    } else {
      tail_ = link.prev;
    }
    link.prev = kNilIndex;
    link.next = kNilIndex;
    --size_;
  }

  /// Successor of `id` within this list.
  template <class Pool>
  u32 next(const Pool& pool, u32 id) const {
    return (pool[id].*Link).next;
  }

  /// Predecessor of `id` within this list.
  template <class Pool>
  u32 prev(const Pool& pool, u32 id) const {
    return (pool[id].*Link).prev;
  }

 private:
  u32 head_ = kNilIndex;
  u32 tail_ = kNilIndex;
  u32 size_ = 0;
};

}  // namespace tw

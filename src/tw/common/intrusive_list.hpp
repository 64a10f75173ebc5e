#pragma once
// Index-linked intrusive FIFO lists over chunk-pooled nodes.
//
// The memory controller keeps every queued request in one pooled node and
// threads that node onto two lists at once: a global age-ordered FIFO and
// a per-bank (or per-subarray) FIFO. Index links instead of pointers keep
// the node compact and let the 48-byte inline event callbacks carry list
// positions; the nodes live in a ChunkPool (chunk_pool.hpp), so the
// steady-state enqueue/dequeue path performs zero heap allocations (the
// same discipline as the simulator's event-node pool).
//
// A node participates in k lists by embedding k ListLink members; each
// IndexList is bound to one member at compile time. Lists never own
// nodes — the caller frees a node back to the pool only after unlinking
// it from every list it is on.

#include "tw/common/assert.hpp"
#include "tw/common/chunk_pool.hpp"
#include "tw/common/types.hpp"

namespace tw {

/// Sentinel "no node" index.
inline constexpr u32 kNilIndex = 0xFFFFFFFFu;

/// One list membership embedded in a pooled node.
struct ListLink {
  u32 prev = kNilIndex;
  u32 next = kNilIndex;
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

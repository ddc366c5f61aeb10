// Type-stable node pool with an ABA-proof free list.
//
// LFRC (PODC'01) frees objects at arbitrary moments — there is no grace
// period — yet LFRCLoad may still *read* a just-freed object's count word
// before its slot-validation DCAS fails. That is sound only under two
// conditions this pool provides and the general heap does not:
//
//   1. type-stability: freed storage stays mapped and is only ever reused
//      for the same node type, so the stale read returns a harmless word
//      (in particular never a value with the descriptor bit set, which
//      would send the MCAS engine chasing a garbage pointer);
//   2. an ABA-proof free list: pushes happen at arbitrary times (no EBR
//      deferral is possible), so the Treiber head carries a version tag
//      updated with a double-width CAS (cmpxchg16b). On non-x86-64 targets
//      a spinlock fallback provides the same interface; the fallback is
//      also used under ThreadSanitizer, which cannot see the inline-asm
//      CAS as a synchronisation edge and would report false races on the
//      recycled storage.
//
// The slab is reserved up front but carved lazily: a node is zeroed and
// handed out the first time the free list comes up empty, so resident
// memory follows the peak number of nodes ever live, not the capacity.
// Stale reads only ever reach nodes that were carved (a pointer to a node
// exists only once it has been handed out), so type-stability holds.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>

#include "dcd/dcas/cmpxchg16b.hpp"
#include "dcd/util/align.hpp"
#include "dcd/util/assert.hpp"
#include "dcd/util/backoff.hpp"

#if defined(__x86_64__) && !defined(__SANITIZE_THREAD__)
#define DCD_TAGGED_POOL_LOCKFREE 1
#else
#define DCD_TAGGED_POOL_LOCKFREE 0
#endif

namespace dcd::reclaim {

class TaggedNodePool {
 public:
  // DCD_GUARD_EXEMPT(single-threaded construction; the free list is private until the pool is shared)
  TaggedNodePool(std::size_t node_size, std::size_t capacity)
      : link_offset_(round_up_to(node_size, alignof(FreeNode))),
        node_size_(round_up_to(link_offset_ + sizeof(FreeNode),
                               util::kCacheLineSize)),
        capacity_(capacity) {
    DCD_ASSERT(capacity > 0);
    slab_ = static_cast<std::byte*>(::operator new(
        node_size_ * capacity_, std::align_val_t{util::kCacheLineSize}));
    head_.lo.store(0, std::memory_order_relaxed);
    head_.hi.store(0, std::memory_order_relaxed);
  }

  ~TaggedNodePool() {
    ::operator delete(slab_, std::align_val_t{util::kCacheLineSize});
  }

  TaggedNodePool(const TaggedNodePool&) = delete;
  TaggedNodePool& operator=(const TaggedNodePool&) = delete;

  // DCD_GUARD_EXEMPT(version tag detects recycling; the speculative next read is discarded on tag mismatch)
  void* allocate() noexcept {
#if DCD_TAGGED_POOL_LOCKFREE
    util::Backoff backoff;
    for (;;) {
      std::uint64_t head, tag;
      dcas::Cmpxchg16bDcas::read(head_, head, tag);
      auto* node = reinterpret_cast<std::byte*>(head);
      if (node == nullptr) return carve();
      // The tag makes a stale `next` harmless: if the head changed and
      // changed back, the tag differs and the CAS fails. (The relaxed read
      // may race a reused node's live data; the value is discarded then.)
      std::byte* next = link(node)->next.load(std::memory_order_relaxed);
      if (dcas::Cmpxchg16bDcas::dcas(head_, head, tag,
                                     reinterpret_cast<std::uint64_t>(next),
                                     tag + 1)) {
        return node;
      }
      backoff.pause();
    }
#else
    Lock g(lock_);
    auto* node = reinterpret_cast<std::byte*>(
        head_.lo.load(std::memory_order_relaxed));
    if (node == nullptr) return carve();
    head_.lo.store(reinterpret_cast<std::uint64_t>(
                       link(node)->next.load(std::memory_order_relaxed)),
                   std::memory_order_relaxed);
    return node;
#endif
  }

  // DCD_GUARD_EXEMPT(caller owns the node exclusively — post-grace callback or never shared)
  void deallocate(void* p) noexcept {
    DCD_DEBUG_ASSERT(owns(p));
    auto* node = static_cast<std::byte*>(p);
#if DCD_TAGGED_POOL_LOCKFREE
    util::Backoff backoff;
    for (;;) {
      std::uint64_t head, tag;
      dcas::Cmpxchg16bDcas::read(head_, head, tag);
      link(node)->next.store(reinterpret_cast<std::byte*>(head),
                             std::memory_order_relaxed);
      if (dcas::Cmpxchg16bDcas::dcas(head_, head, tag,
                                     reinterpret_cast<std::uint64_t>(node),
                                     tag + 1)) {
        return;
      }
      backoff.pause();
    }
#else
    Lock g(lock_);
    link(node)->next.store(reinterpret_cast<std::byte*>(
                               head_.lo.load(std::memory_order_relaxed)),
                           std::memory_order_relaxed);
    head_.lo.store(reinterpret_cast<std::uint64_t>(node),
                   std::memory_order_relaxed);
#endif
  }

  bool owns(const void* p) const noexcept {
    const auto* b = static_cast<const std::byte*>(p);
    return b >= slab_ && b < slab_ + node_size_ * capacity_ &&
           (static_cast<std::size_t>(b - slab_) % node_size_) == 0;
  }

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t node_size() const noexcept { return node_size_; }

 private:
  // Free-list link of a node. It sits after the object's bytes, never
  // inside them: a stale LFRC loader's DCAS on a freed node's count word
  // is emulated by installing descriptor marks before the DCAS decides,
  // so any word of a free node's object part may transiently hold a mark.
  // A link stored there would let allocate() pop that mark as the next
  // node.
  struct FreeNode {
    std::atomic<std::byte*> next;
  };

  FreeNode* link(std::byte* node) const noexcept {
    return reinterpret_cast<FreeNode*>(node + link_offset_);
  }

  class Lock {
   public:
    explicit Lock(std::atomic<bool>& flag) : flag_(flag) {
      util::Backoff backoff;
      while (flag_.exchange(true, std::memory_order_acquire)) {
        backoff.pause();
      }
    }
    ~Lock() { flag_.store(false, std::memory_order_release); }

   private:
    std::atomic<bool>& flag_;
  };

  // Hands out the next never-used node, zeroed so a later stale read of
  // it sees clean words; nullptr once the slab is used up. The index alone
  // makes the node exclusive: nothing is published, so relaxed suffices.
  void* carve() noexcept {
    if (carved_.load(std::memory_order_relaxed) >= capacity_) return nullptr;
    const std::size_t i = carved_.fetch_add(1, std::memory_order_relaxed);
    if (i >= capacity_) return nullptr;
    std::byte* node = slab_ + i * node_size_;
    std::memset(node, 0, node_size_);
    return node;
  }

  static constexpr std::size_t round_up_to(std::size_t n,
                                           std::size_t a) noexcept {
    return (n + a - 1) / a * a;
  }

  std::size_t link_offset_;  // object bytes come first, then the link
  std::size_t node_size_;
  std::size_t capacity_;
  std::byte* slab_ = nullptr;
  dcas::AdjacentPair head_;  // {pointer, version tag}
  std::atomic<std::size_t> carved_{0};  // slab nodes handed out so far
  std::atomic<bool> lock_{false};
};

}  // namespace dcd::reclaim

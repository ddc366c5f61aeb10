// Fixed-capacity, cache-line-aligned node pool.
//
// The paper's New() allocator is modelled as a lock-free free list over a
// pre-allocated slab. Allocation failure is observable (returns nullptr),
// which drives the paper's "push returns full when the allocator fails"
// path (footnote 3). The slab is reserved up front but carved lazily: a
// node is handed out from the never-used tail once the free list is
// empty, so resident memory follows the peak number of live nodes, not
// the capacity.
//
// ABA-freedom of the Treiber free list relies on the usage contract:
// pops happen inside an EBR guard and pushes happen only through EBR
// reclamation callbacks (or before any concurrency starts). A node can then
// never leave and re-enter the free list within one guard, so the classic
// pop-pop-push ABA interleaving is impossible.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>

#include "dcd/util/align.hpp"
#include "dcd/util/assert.hpp"

namespace dcd::reclaim {

class NodePool {
 public:
  // Every allocation is `node_size` bytes, aligned to a cache line (which
  // also guarantees the low 3 bits of node addresses are zero — the word
  // encoding in dcd::dcas relies on this).
  // DCD_GUARD_EXEMPT(single-threaded construction; the free list is private until the pool is shared)
  NodePool(std::size_t node_size, std::size_t capacity)
      : node_size_(round_up(node_size)), capacity_(capacity) {
    DCD_ASSERT(capacity > 0);
    slab_ = static_cast<std::byte*>(::operator new(
        node_size_ * capacity_, std::align_val_t{util::kCacheLineSize}));
    head_->store(nullptr, std::memory_order_relaxed);
  }

  ~NodePool() {
    ::operator delete(slab_, std::align_val_t{util::kCacheLineSize});
  }

  NodePool(const NodePool&) = delete;
  NodePool& operator=(const NodePool&) = delete;

  // Pops a node; nullptr when exhausted. Caller must hold an EBR guard if
  // other threads may be deallocating concurrently.
  // DCD_REQUIRES_GUARD(Treiber pop reads head->next; the caller's EBR guard keeps head unreclaimed)
  void* allocate() noexcept {
    // DCD_HB(pool.free-list.reuse, role=acquire)
    FreeNode* head = head_->load(std::memory_order_acquire);
    while (head != nullptr) {
      FreeNode* next = head->next.load(std::memory_order_relaxed);
      // DCD_SYNC(allocator-internal)
      if (head_->compare_exchange_weak(head, next, std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        live_->fetch_add(1, std::memory_order_relaxed);
        return head;
      }
    }
    std::size_t got = 0;
    return carve(1, &got);
  }

  // Pushes a node back. Safe only from EBR reclamation callbacks or when
  // the caller owns the node exclusively (see class comment).
  // DCD_GUARD_EXEMPT(caller owns the node exclusively — post-grace callback or never shared)
  void deallocate(void* p) noexcept {
    DCD_DEBUG_ASSERT(owns(p));
    auto* fn = static_cast<FreeNode*>(p);
    FreeNode* head = head_->load(std::memory_order_relaxed);
    // DCD_PROGRESS(Treiber push: a failed CAS means another push or pop committed; the loop only re-links and retries)
    do {
      fn->next.store(head, std::memory_order_relaxed);
      // DCD_SYNC(allocator-internal)
      // DCD_HB(pool.free-list.reuse, role=release)
    } while (!head_->compare_exchange_weak(head, fn,
                                          std::memory_order_acq_rel,
                                          std::memory_order_relaxed));
    live_->fetch_sub(1, std::memory_order_relaxed);
  }

  // EbrDomain-compatible deleter: ctx is the pool.
  static void deallocate_cb(void* p, void* ctx) {
    static_cast<NodePool*>(ctx)->deallocate(p);
  }

  // --- chain (batch) operations for MagazinePool ---------------------------
  //
  // Both sides of a batch transfer are a *single* CAS on head_, so a
  // magazine refill/flush costs the shared line one RMW regardless of K.
  //
  // ABA safety of the multi-node detach follows from the same usage
  // contract as allocate(): the caller holds an EBR guard, so no node can
  // leave and re-enter the free list while we hold `head` — if the final
  // CAS succeeds, head never moved, and nodes below an unmoved head are
  // frozen (popping them would require popping head first). The walk may
  // still read a *recycled* node's next word (same benign race as the
  // FreeNode comment below); the only real hazard is following a garbage
  // link out of the slab, so every link is validated with owns() and the
  // walk restarts on the first invalid one (a corrupt chain implies head
  // already moved, so the CAS would have failed anyway).

  // Detaches up to `want` nodes as a linked chain; returns the chain head
  // (links readable via chain_next) and writes the actual count to *got.
  // nullptr / 0 when the free list is empty. Caller must hold an EBR guard.
  // DCD_REQUIRES_GUARD(chain walk reads free-list links; the caller's EBR guard keeps them unreclaimed)
  void* allocate_chain(std::size_t want, std::size_t* got) noexcept {
    DCD_ASSERT(want > 0);
    FreeNode* head = head_->load(std::memory_order_acquire);
    while (head != nullptr) {
      // Walk want-1 links past head to find the first node NOT taken.
      FreeNode* tail = head;
      std::size_t n = 1;
      bool valid = true;
      while (n < want) {
        FreeNode* next = tail->next.load(std::memory_order_relaxed);
        if (next == nullptr) break;
        if (!owns(next)) {  // stale read off a recycled node: restart
          valid = false;
          break;
        }
        tail = next;
        ++n;
      }
      if (!valid) {
        head = head_->load(std::memory_order_acquire);
        continue;
      }
      FreeNode* rest = tail->next.load(std::memory_order_relaxed);
      if (rest != nullptr && !owns(rest)) {
        head = head_->load(std::memory_order_acquire);
        continue;
      }
      // DCD_SYNC(allocator-internal)
      if (head_->compare_exchange_weak(head, rest, std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        // Terminate the detached chain so callers can walk it safely.
        tail->next.store(nullptr, std::memory_order_relaxed);
        live_->fetch_add(n, std::memory_order_relaxed);
        *got = n;
        return head;
      }
    }
    return carve(want, got);
  }

  // Pushes a pre-linked chain [first .. last] of `count` nodes back with
  // one CAS. Same ownership contract as deallocate(): the caller must own
  // every node in the chain exclusively (magazine flushes qualify — their
  // nodes arrived via deallocate paths, i.e. post-grace or never shared).
  // DCD_GUARD_EXEMPT(caller owns every chain node exclusively — post-grace or never shared)
  void deallocate_chain(void* first, void* last, std::size_t count) noexcept {
    DCD_DEBUG_ASSERT(owns(first) && owns(last));
    auto* f = static_cast<FreeNode*>(first);
    auto* l = static_cast<FreeNode*>(last);
    FreeNode* head = head_->load(std::memory_order_relaxed);
    // DCD_PROGRESS(Treiber chain push: a failed CAS means another push or pop committed; the loop only re-links and retries)
    do {
      l->next.store(head, std::memory_order_relaxed);
      // DCD_SYNC(allocator-internal)
    } while (!head_->compare_exchange_weak(head, f, std::memory_order_acq_rel,
                                           std::memory_order_relaxed));
    live_->fetch_sub(count, std::memory_order_relaxed);
  }

  // Chain-link accessors so MagazinePool can thread private (unshared)
  // chains through node storage without knowing FreeNode's layout. Only
  // valid on nodes the caller owns exclusively.
  // DCD_GUARD_EXEMPT(valid only on exclusively-owned chain nodes per the accessor contract)
  static void* chain_next(void* p) noexcept {
    return static_cast<FreeNode*>(p)->next.load(std::memory_order_relaxed);
  }
  // DCD_GUARD_EXEMPT(valid only on exclusively-owned chain nodes per the accessor contract)
  static void chain_set_next(void* p, void* next) noexcept {
    static_cast<FreeNode*>(p)->next.store(static_cast<FreeNode*>(next),
                                          std::memory_order_relaxed);
  }

  bool owns(const void* p) const noexcept {
    const auto* b = static_cast<const std::byte*>(p);
    return b >= slab_ && b < slab_ + node_size_ * capacity_ &&
           (static_cast<std::size_t>(b - slab_) % node_size_) == 0;
  }

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t node_size() const noexcept { return node_size_; }
  std::uint64_t live() const noexcept {
    return live_->load(std::memory_order_relaxed);
  }
  std::uint64_t allocation_failures() const noexcept {
    return failures_->load(std::memory_order_relaxed);
  }

 private:
  struct FreeNode {
    // Atomic: the link overlays node field words, and a speculative
    // allocate() may read it while another thread's re-initialising
    // atomic store to the reused node lands on the same bytes.
    std::atomic<FreeNode*> next;
  };

  // Takes up to `want` never-used nodes off the slab's tail as a chain
  // (nullptr-terminated; *got = count); nullptr once the slab is used up.
  // The index range alone makes the nodes exclusive: nothing is
  // published through carved_, so relaxed suffices.
  // DCD_GUARD_EXEMPT(never-used slab nodes are exclusively owned by the carving thread)
  void* carve(std::size_t want, std::size_t* got) noexcept {
    const std::size_t i =
        carved_->load(std::memory_order_relaxed) < capacity_
            ? carved_->fetch_add(want, std::memory_order_relaxed)
            : capacity_;
    if (i >= capacity_) {
      failures_->fetch_add(1, std::memory_order_relaxed);
      *got = 0;
      return nullptr;
    }
    const std::size_t n = want < capacity_ - i ? want : capacity_ - i;
    std::byte* first = slab_ + i * node_size_;
    for (std::size_t k = 0; k < n; ++k) {
      auto* fn = reinterpret_cast<FreeNode*>(first + k * node_size_);
      fn->next.store(k + 1 < n ? reinterpret_cast<FreeNode*>(
                                     first + (k + 1) * node_size_)
                               : nullptr,
                     std::memory_order_relaxed);
    }
    live_->fetch_add(n, std::memory_order_relaxed);
    *got = n;
    return first;
  }

  static std::size_t round_up(std::size_t n) noexcept {
    const std::size_t a = util::kCacheLineSize;
    return (n + a - 1) / a * a;
  }

  std::size_t node_size_;
  std::size_t capacity_;
  std::byte* slab_ = nullptr;
  // head_ is the hot RMW word; live_/failures_ are bumped on every
  // alloc/dealloc by whichever thread ran it. Each gets its own line so
  // counter traffic never invalidates the line the CAS loop spins on.
  util::CacheAligned<std::atomic<FreeNode*>> head_;
  util::CacheAligned<std::atomic<std::uint64_t>> live_;
  util::CacheAligned<std::atomic<std::uint64_t>> failures_;
  util::CacheAligned<std::atomic<std::size_t>> carved_;  // slab nodes used
};

}  // namespace dcd::reclaim

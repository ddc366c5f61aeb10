// Per-thread node magazines over the shared NodePool free list.
//
// Under multi-thread load the list deque's serialization point is not the
// DCAS the paper reasons about but the allocator: every push pops and every
// reclaimed pop pushes the *same* Treiber head. MagazinePool interposes a
// bounded per-thread cache (a "magazine", after Bonwick's slab magazines):
// the common alloc/free hits thread-private state guarded by an
// uncontended try-lock, and the shared head is touched only in batches —
// one CAS detaches a whole K-node chain (NodePool::allocate_chain) and one
// CAS returns one (NodePool::deallocate_chain).
//
// Memory bound (cf. Aksenov et al., PAPERS.md): a magazine holds at most
// batch-1 nodes on its allocation chain plus batch-1 on its free chain, so
// the total strandable inventory is bounded by 2*(batch-1)*threads — and
// exhaustion is *not* reported until a sweep over every magazine has come
// up empty, preserving the paper's footnote 3 contract that push returns
// "full" only when the allocator is truly out of nodes.
//
// ABA contract: the magazine layer introduces no new free-list orderings.
// Refills detach under the caller's EBR guard (the allocate_chain proof in
// node_pool.hpp); refilled nodes live on the *allocation* chain and are
// only ever handed out, never re-pushed to the shared list; the free chain
// accepts only nodes arriving through deallocate() — i.e. post-grace via
// EBR callbacks or exclusively owned — which is exactly the precondition
// deallocate_chain requires for the flush.
//
// Two magazine chains, and why they are never merged:
//   allocation chain — nodes detached from the shared list with no grace
//       period since; safe to hand out, NOT safe to re-push while any
//       guard from before the detach might still hold the old head.
//   free chain       — nodes returned through deallocate(); safe anywhere.
//
// Threading: each ThreadRegistry slot owns one cache-line-isolated
// magazine. Only the owner touches it on the hot path; the exhaustion
// sweep may steal from any magazine, so every access goes through a
// per-magazine try-lock (acquire/release exchange — TSan-clean). A failed
// try-lock never waits: the caller falls through to the shared pool, so a
// thread parked inside a magazine (fault injection) degrades throughput,
// never progress.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "dcd/reclaim/node_pool.hpp"
#include "dcd/util/align.hpp"
#include "dcd/util/assert.hpp"
#include "dcd/util/thread_registry.hpp"

namespace dcd::reclaim {

// Named observability points on the magazine slow paths, fired through an
// installable process-wide hook. The fault-injection layer installs
// ChaosController's trampoline here (chaos.cpp) so park/delay rules can
// target the refill/flush windows; the names mirror
// dcd::dcas::sync_point::{kMagazineRefill,kMagazineFlush} — the reclaim
// layer cannot include chaos.hpp (dcd_dcas links dcd_reclaim, not the
// reverse), so the strings are duplicated and tools/analyze checks
// arm_park() literals against the chaos.hpp roster.
namespace magazine_sync {
inline constexpr const char* kRefill = "magazine.refill";
inline constexpr const char* kFlush = "magazine.flush";
}  // namespace magazine_sync

using MagazineHook = void (*)(const char* point);

inline std::atomic<MagazineHook>& magazine_hook() noexcept {
  static std::atomic<MagazineHook> hook{nullptr};
  return hook;
}

// Aggregate telemetry over all magazines (relaxed counters; exact when
// sampled quiescent, like dcas::Telemetry).
struct MagazineStats {
  std::uint64_t hits = 0;      // served from the calling thread's magazine
  std::uint64_t misses = 0;    // magazine empty (or locked by a sweeper)
  std::uint64_t refills = 0;   // successful chain detaches
  std::uint64_t flushes = 0;   // successful chain flushes
};

class MagazinePool {
 public:
  static constexpr std::size_t kDefaultBatch = 32;

  // Drop-in for NodePool(node_size, capacity); `batch` is K, the chain
  // length a refill detaches and a flush returns.
  MagazinePool(std::size_t node_size, std::size_t capacity,
               std::size_t batch = kDefaultBatch)
      : pool_(node_size, capacity), batch_(batch < 2 ? 2 : batch) {}

  MagazinePool(const MagazinePool&) = delete;
  MagazinePool& operator=(const MagazinePool&) = delete;

  // Pops a node; nullptr only when the shared list AND every magazine are
  // empty. Same caller contract as NodePool::allocate (EBR guard held if
  // frees are concurrent) — the refill path detaches under that guard.
  // DCD_REQUIRES_GUARD(refill detaches from the shared free list under the caller's EBR guard)
  void* allocate() noexcept {
    Magazine& m = my_magazine();
    if (m.lock.exchange(true, std::memory_order_acquire)) {
      // A sweeper holds our magazine; don't wait on it.
      bump(m.misses);
      return pool_.allocate();
    }
    if (void* p = take_locked(m)) {
      bump(m.hits);
      m.lock.store(false, std::memory_order_release);
      return p;
    }
    bump(m.misses);
    fire(magazine_sync::kRefill);
    std::size_t got = 0;
    if (void* chain = pool_.allocate_chain(batch_, &got)) {
      bump(m.refills);
      m.alloc_head = NodePool::chain_next(chain);
      m.alloc_count = got - 1;
      m.lock.store(false, std::memory_order_release);
      return chain;
    }
    m.lock.store(false, std::memory_order_release);
    // Shared list empty: the remaining inventory (if any) is stranded in
    // other threads' magazines. Sweep them before reporting exhaustion.
    return sweep_allocate();
  }

  // Returns a node. Contract follows NodePool::deallocate: callers are EBR
  // reclamation callbacks or exclusive owners, so the node is safe to
  // re-push — it joins the free chain and leaves in a one-CAS batch flush.
  void deallocate(void* p) noexcept {
    DCD_DEBUG_ASSERT(pool_.owns(p));
    Magazine& m = my_magazine();
    if (m.lock.exchange(true, std::memory_order_acquire)) {
      pool_.deallocate(p);
      return;
    }
    NodePool::chain_set_next(p, m.free_head);
    m.free_head = p;
    if (m.free_tail == nullptr) m.free_tail = p;
    ++m.free_count;
    if (m.free_count >= batch_) {
      fire(magazine_sync::kFlush);
      pool_.deallocate_chain(m.free_head, m.free_tail, m.free_count);
      m.free_head = m.free_tail = nullptr;
      m.free_count = 0;
      bump(m.flushes);
    }
    m.lock.store(false, std::memory_order_release);
  }

  // EbrDomain-compatible deleter: ctx is this MagazinePool.
  static void deallocate_cb(void* p, void* ctx) {
    static_cast<MagazinePool*>(ctx)->deallocate(p);
  }

  // --- NodePool-compatible surface ----------------------------------------

  bool owns(const void* p) const noexcept { return pool_.owns(p); }
  std::size_t capacity() const noexcept { return pool_.capacity(); }
  std::size_t node_size() const noexcept { return pool_.node_size(); }
  std::uint64_t live() const noexcept { return pool_.live(); }
  std::uint64_t allocation_failures() const noexcept {
    return pool_.allocation_failures();
  }
  std::size_t batch() const noexcept { return batch_; }

  // Sum over all magazines. Quiescence caveat as in dcas::Telemetry.
  MagazineStats stats() const noexcept {
    MagazineStats s;
    for (const Magazine& m : mags_) {
      s.hits += m.hits.load(std::memory_order_relaxed);
      s.misses += m.misses.load(std::memory_order_relaxed);
      s.refills += m.refills.load(std::memory_order_relaxed);
      s.flushes += m.flushes.load(std::memory_order_relaxed);
    }
    return s;
  }

  // Nodes currently cached across all magazines (quiescent-exact; a test
  // hook for the flush/sweep accounting).
  std::size_t cached_unsynchronized() const noexcept {
    std::size_t n = 0;
    for (const Magazine& m : mags_) n += m.alloc_count + m.free_count;
    return n;
  }

 private:
  // One line for the lock + chains, so hot-path ops touch exactly one line
  // and neighbouring slots never false-share. The counters ride in the
  // same block: only the owner bumps them (sweepers don't), and stats() is
  // a quiescent read.
  struct alignas(util::kCacheLineSize) Magazine {
    std::atomic<bool> lock{false};
    void* alloc_head = nullptr;  // detached from shared list; alloc-only
    std::size_t alloc_count = 0;
    void* free_head = nullptr;  // from deallocate(); flushable
    void* free_tail = nullptr;
    std::size_t free_count = 0;
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> refills{0};
    std::atomic<std::uint64_t> flushes{0};
  };

  static void fire(const char* point) noexcept {
    // DCD_HB(magazine.hook.install, role=acquire)
    if (MagazineHook h = magazine_hook().load(std::memory_order_acquire)) {
      h(point);
    }
  }

  // ThreadRegistry::self() is an out-of-line call; at one call per
  // allocator op it shows up on the hot path. A thread's slot id is stable
  // for its whole lifetime, so a one-entry per-thread cache keyed by pool
  // identity is safe: a hit returns the exact magazine self() would have
  // picked, and a thread touching a different (or reconstructed) pool
  // misses and recomputes. Cache identity uses the pool address — if a new
  // pool is constructed at a recycled address, the cached pointer lands at
  // the same member offset of the new object, which is still correct.
  Magazine& my_magazine() noexcept {
    struct Cache {
      const MagazinePool* pool;
      Magazine* mag;
    };
    static thread_local Cache cache{nullptr, nullptr};
    if (cache.pool != this) {
      cache = {this, &mags_[util::ThreadRegistry::self()]};
    }
    return *cache.mag;
  }

  // Counters are single-writer (only the slot's owner bumps them; sweepers
  // never touch a victim's counters), so a plain load+store increment
  // suffices — a fetch_add would put a locked RMW on every hot-path op,
  // costing the magazine the very serialization it exists to avoid.
  static void bump(std::atomic<std::uint64_t>& c) noexcept {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  // Caller holds m.lock. Allocation chain first: its nodes must drain
  // through allocations (see header comment), the free chain's may also
  // flush later.
  static void* take_locked(Magazine& m) noexcept {
    if (m.alloc_head != nullptr) {
      void* p = m.alloc_head;
      m.alloc_head = NodePool::chain_next(p);
      --m.alloc_count;
      return p;
    }
    if (m.free_head != nullptr) {
      void* p = m.free_head;
      m.free_head = NodePool::chain_next(p);
      if (m.free_head == nullptr) m.free_tail = nullptr;
      --m.free_count;
      return p;
    }
    return nullptr;
  }

  // Exhaustion path: steal one node from any magazine that yields its
  // try-lock. This is also what makes a dead thread's inventory reachable
  // — its magazine stays stealable after the slot recycles, so "flush on
  // thread exit" is realised lazily by whoever needs the nodes.
  // DCD_REQUIRES_GUARD(falls through to NodePool::allocate; same EBR-guard contract)
  void* sweep_allocate() noexcept {
    for (Magazine& v : mags_) {
      if (v.lock.exchange(true, std::memory_order_acquire)) continue;
      void* p = take_locked(v);
      v.lock.store(false, std::memory_order_release);
      if (p != nullptr) return p;
    }
    // A concurrent flush may have restocked the shared list mid-sweep;
    // this final attempt also counts the definitive failure.
    return pool_.allocate();
  }

  NodePool pool_;
  std::size_t batch_;
  Magazine mags_[util::ThreadRegistry::kMaxThreads];
};

}  // namespace dcd::reclaim

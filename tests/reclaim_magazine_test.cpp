// MagazinePool: per-thread magazines over the shared NodePool free list.
//
// Covers the DESIGN.md §13 contracts: exhaustion is reported only after
// the shared list AND every magazine are empty (the paper's footnote 3 —
// push says "full" only when the allocator truly is), cross-thread
// free/alloc traffic through EBR loses no nodes, a dead thread's cached
// inventory stays reachable (lazy flush via the sweep), and the refill
// chain-detach survives concurrent hammering — the test CI runs under
// ASan and TSan (suite name matches the sanitizer subsets' "Pool" regex).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <string_view>
#include <thread>
#include <vector>

#include "dcd/reclaim/ebr.hpp"
#include "dcd/reclaim/magazine_pool.hpp"
#include "dcd/util/align.hpp"
#include "dcd/util/barrier.hpp"

namespace {

using dcd::reclaim::EbrDomain;
using dcd::reclaim::MagazinePool;
using dcd::reclaim::magazine_hook;
using dcd::reclaim::MagazineStats;

TEST(MagazinePool, AllocationsAreDistinctOwnedAndCounted) {
  MagazinePool pool(24, 16, /*batch=*/4);
  std::set<void*> seen;
  for (int i = 0; i < 16; ++i) {
    void* p = pool.allocate();
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(pool.owns(p));
    EXPECT_TRUE(seen.insert(p).second);
  }
  EXPECT_EQ(pool.live(), 16u);
  const MagazineStats s = pool.stats();
  // First allocation of each batch misses and refills; the chain's
  // remainder serves the following allocations as hits.
  EXPECT_GT(s.refills, 0u);
  EXPECT_GT(s.hits, 0u);
  EXPECT_EQ(s.hits + s.misses, 16u);
}

TEST(MagazinePool, BatchClampsToAtLeastTwo) {
  MagazinePool pool(8, 4, /*batch=*/0);
  EXPECT_EQ(pool.batch(), 2u);
  MagazinePool pool2(8, 4, /*batch=*/7);
  EXPECT_EQ(pool2.batch(), 7u);
}

TEST(MagazinePool, ExhaustionReturnsNullOnlyWhenEverythingIsEmpty) {
  constexpr std::size_t kCap = 8;
  MagazinePool pool(8, kCap, /*batch=*/4);
  void* ps[kCap];
  for (auto& p : ps) {
    p = pool.allocate();
    ASSERT_NE(p, nullptr);
  }
  // Shared list and this thread's magazine are both drained.
  EXPECT_EQ(pool.allocate(), nullptr);
  EXPECT_GE(pool.allocation_failures(), 1u);
  // One node back (exclusive owner — safe outside EBR) makes the pool
  // allocatable again, straight from the magazine's free chain.
  pool.deallocate(ps[0]);
  EXPECT_NE(pool.allocate(), nullptr);
}

TEST(MagazinePool, FreeChainFlushesToSharedListAtBatch) {
  constexpr std::size_t kCap = 8;
  constexpr std::size_t kBatch = 4;
  MagazinePool pool(8, kCap, kBatch);
  void* ps[kCap];
  for (auto& p : ps) {
    p = pool.allocate();
    ASSERT_NE(p, nullptr);
  }
  // Returning batch-1 nodes leaves them cached in this magazine...
  for (std::size_t i = 0; i + 1 < kBatch; ++i) pool.deallocate(ps[i]);
  EXPECT_EQ(pool.cached_unsynchronized(), kBatch - 1);
  EXPECT_EQ(pool.stats().flushes, 0u);
  // ...and the batch-th triggers the one-CAS chain flush.
  pool.deallocate(ps[kBatch - 1]);
  EXPECT_EQ(pool.cached_unsynchronized(), 0u);
  EXPECT_EQ(pool.stats().flushes, 1u);
  EXPECT_EQ(pool.live(), kCap - kBatch);
}

TEST(MagazinePool, HookFiresOnRefillAndFlushWindows) {
  static std::atomic<int> refills{0};
  static std::atomic<int> flushes{0};
  refills = 0;
  flushes = 0;
  magazine_hook().store(
      +[](const char* point) {
        if (point == std::string_view(dcd::reclaim::magazine_sync::kRefill)) {
          refills.fetch_add(1, std::memory_order_relaxed);
        }
        if (point == std::string_view(dcd::reclaim::magazine_sync::kFlush)) {
          flushes.fetch_add(1, std::memory_order_relaxed);
        }
      },
      std::memory_order_release);
  {
    MagazinePool pool(8, 8, /*batch=*/4);
    void* ps[4];
    for (auto& p : ps) p = pool.allocate();
    for (auto& p : ps) pool.deallocate(p);
  }
  magazine_hook().store(nullptr, std::memory_order_release);
  EXPECT_GE(refills.load(std::memory_order_relaxed), 1);
  EXPECT_GE(flushes.load(std::memory_order_relaxed), 1);
}

TEST(MagazinePool, DeadThreadInventoryStaysReachableViaSweep) {
  // "Flush on thread exit" is lazy: a worker strands nodes on its
  // magazine's chains and exits; the sweep makes them allocatable from
  // the main thread, so the full capacity is still reachable.
  constexpr std::size_t kCap = 8;
  MagazinePool pool(8, kCap, /*batch=*/4);
  std::thread worker([&] {
    void* a = pool.allocate();  // refill detaches 4: 3 stay cached
    ASSERT_NE(a, nullptr);
    pool.deallocate(a);  // free chain of 1 — below batch, not flushed
  });
  worker.join();
  EXPECT_GT(pool.cached_unsynchronized(), 0u);
  std::set<void*> seen;
  for (std::size_t i = 0; i < kCap; ++i) {
    void* p = pool.allocate();
    ASSERT_NE(p, nullptr) << "node stranded in a dead thread's magazine";
    EXPECT_TRUE(seen.insert(p).second);
  }
  EXPECT_EQ(pool.allocate(), nullptr);
}

TEST(MagazinePool, CrossThreadFreeAllocThroughEbrIsLossless) {
  // Producer threads allocate and retire; the EBR callbacks run on
  // whichever thread collects, landing nodes in *that* thread's magazine
  // — the classic cross-thread alloc/free imbalance the flush + sweep
  // must absorb without losing a node.
  constexpr int kThreads = 4;
  constexpr int kIters = 5000;
  constexpr std::size_t kCap = 64;
  MagazinePool pool(32, kCap, /*batch=*/8);  // outlives the domain
  {
    EbrDomain domain;
    dcd::util::SpinBarrier barrier(kThreads);
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
      ts.emplace_back([&] {
        barrier.arrive_and_wait();
        for (int i = 0; i < kIters; ++i) {
          EbrDomain::Guard guard(domain);
          void* p = pool.allocate();
          if (p != nullptr) {
            domain.retire(p, MagazinePool::deallocate_cb, &pool);
          }
        }
      });
    }
    for (auto& t : ts) t.join();
    // Worker limbo lists drain on domain destruction (a dead worker's slot
    // is only reliably reaped there — see EbrDomain's destructor contract).
  }
  EXPECT_EQ(pool.live(), 0u);
  // No node was lost: the sweep recovers every magazine's inventory.
  std::size_t count = 0;
  while (pool.allocate() != nullptr) ++count;
  EXPECT_EQ(count, kCap);
}

TEST(MagazinePool, ConcurrentRefillChainDetachStress) {
  // Many threads hammering refills against a small shared list: the
  // allocate_chain detach validates every link under the EBR-guard ABA
  // argument in node_pool.hpp. ASan/TSan runs of this test are the
  // sanitizer coverage for that walk.
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  constexpr std::size_t kCap = 48;
  MagazinePool pool(16, kCap, /*batch=*/4);
  std::atomic<std::uint64_t> served{0};
  {
    EbrDomain domain;
    dcd::util::SpinBarrier barrier(kThreads);
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
      ts.emplace_back([&] {
        barrier.arrive_and_wait();
        for (int i = 0; i < kIters; ++i) {
          EbrDomain::Guard guard(domain);
          void* p = pool.allocate();
          if (p != nullptr) {
            served.fetch_add(1, std::memory_order_relaxed);
            domain.retire(p, MagazinePool::deallocate_cb, &pool);
          }
        }
      });
    }
    for (auto& t : ts) t.join();
  }
  EXPECT_GT(served.load(std::memory_order_relaxed), 0u);
  EXPECT_EQ(pool.live(), 0u);
  std::size_t count = 0;
  while (pool.allocate() != nullptr) ++count;
  EXPECT_EQ(count, kCap);
}

}  // namespace

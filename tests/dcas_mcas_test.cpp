// McasDcas-specific behaviour: descriptor stripping, helping, snapshots,
// and lock-freedom under a stalled writer.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "dcd/dcas/mcas.hpp"
#include "dcd/dcas/telemetry.hpp"
#include "dcd/reclaim/ebr.hpp"
#include "dcd/util/barrier.hpp"
#include "dcd/util/rng.hpp"
#include "dcd/util/thread_registry.hpp"

namespace {

using namespace dcd::dcas;

constexpr std::uint64_t val(std::uint64_t x) { return encode_payload(x); }

TEST(Mcas, LoadNeverReturnsMarkedWord) {
  Word a(val(1)), b(val(2));
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    std::uint64_t x = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t va = McasDcas::load(a);
      const std::uint64_t vb = McasDcas::load(b);
      (void)McasDcas::dcas(a, b, va, vb, val(x), val(x + 1));
      ++x;
    }
  });
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t v = McasDcas::load(a);
    ASSERT_FALSE(is_descriptor(v)) << "descriptor leaked to a reader";
  }
  stop.store(true, std::memory_order_relaxed);
  churn.join();
}

TEST(Mcas, SnapshotIsAtomicPair) {
  // Writers keep a == b at all times (paired increments); a snapshot must
  // therefore never observe a != b.
  Word a(val(0)), b(val(0));
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t va = McasDcas::load(a);
        (void)McasDcas::dcas(a, b, va, va, val(decode_payload(va) + 1),
                             val(decode_payload(va) + 1));
      }
    });
  }
  for (int i = 0; i < 3000; ++i) {
    std::uint64_t va = 0, vb = 0;
    McasDcas::snapshot(a, b, va, vb);
    ASSERT_EQ(va, vb) << "snapshot observed a torn pair";
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : writers) w.join();
}

TEST(Mcas, HelpersCompleteAStalledOperation) {
  // We cannot literally freeze a thread mid-DCAS from outside, but we can
  // verify the observable consequence of helping: under heavy contention
  // with more threads than cores, every operation still completes and the
  // help counter advances.
  Telemetry::reset();
  constexpr int kThreads = 8;
  constexpr int kIters = 3000;
  Word a(val(0)), b(val(0));
  dcd::util::SpinBarrier barrier(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      barrier.arrive_and_wait();
      for (int i = 0; i < kIters; ++i) {
        for (;;) {
          const std::uint64_t va = McasDcas::load(a);
          const std::uint64_t vb = McasDcas::load(b);
          if (McasDcas::dcas(a, b, va, vb, val(decode_payload(va) + 1),
                             val(decode_payload(vb) + 1))) {
            break;
          }
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(McasDcas::load(a), val(kThreads * kIters));
  EXPECT_EQ(McasDcas::load(b), val(kThreads * kIters));
}

TEST(Mcas, DescriptorsAreReclaimed) {
  // Measure this thread's *delta* over whatever earlier tests left in
  // the global domain: our own retires must drain once we quiesce and
  // collect.
  auto& domain = dcd::reclaim::global_ebr_domain();
  domain.collect();
  const std::uint64_t base = domain.pending_count();
  Word a(val(0)), b(val(0));
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t va = McasDcas::load(a);
    const std::uint64_t vb = McasDcas::load(b);
    ASSERT_TRUE(McasDcas::dcas(a, b, va, vb, val(i + 1), val(i + 1)));
  }
  domain.collect();
  domain.collect();
  domain.collect();
  const std::uint64_t now = domain.pending_count();
  // Allow a small tail for the last drain batch.
  EXPECT_LT(now, base + 512) << "own descriptors not reclaimed";
}

TEST(Mcas, SteadyStateDescriptorsComeFromTheSlotCache) {
  // Once a thread's retire -> grace -> reuse pipeline is primed, every
  // descriptor it allocates is one its own slot got back from EBR: each
  // shared pool sees at most one cap's worth of first draws and the heap
  // is never touched.
  const auto before = McasDcas::descriptor_cache_stats();
  Word a(val(0)), b(val(0));
  for (std::uint64_t i = 0; i < 100000; ++i) {
    ASSERT_TRUE(McasDcas::dcas(a, b, val(i), val(i), val(i + 1), val(i + 1)));
  }
  const auto after = McasDcas::descriptor_cache_stats();
  EXPECT_EQ(after.heap_fallbacks, before.heap_fallbacks);
  EXPECT_LE(after.mcas_pool_draws - before.mcas_pool_draws,
            McasDcas::kDescCacheCap);
  EXPECT_LE(after.rdcss_pool_draws - before.rdcss_pool_draws,
            McasDcas::kDescCacheCap);
}

TEST(Mcas, ThreadChurnStrandsNoDescriptors) {
  // 64 short-lived threads, at most 4 alive at once. A thread that exits
  // leaves its cache (and its limbo) to the next owner of its registry
  // slot, so draws from the shared pools stay bounded by the caches of
  // the slots in use instead of growing with the number of threads. The
  // live threads take turns in chunks: a thread preempted while pinned
  // would otherwise stall the epoch and let the others' limbo (an EBR
  // property, not the cache's) grow without bound.
  constexpr int kRounds = 16;
  constexpr int kLive = 4;
  constexpr int kChunks = 10;
  constexpr std::uint64_t kDcasPerChunk = 100;
  const auto before = McasDcas::descriptor_cache_stats();
  std::atomic<std::uint64_t> slots_seen{0};  // bitmask of registry slots
  std::mutex turn;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::thread> ts;
    for (int t = 0; t < kLive; ++t) {
      ts.emplace_back([&] {
        const std::size_t s = dcd::util::ThreadRegistry::self();
        ASSERT_LT(s, 64u);
        slots_seen.fetch_or(std::uint64_t{1} << s, std::memory_order_relaxed);
        Word a(val(0)), b(val(0));
        std::uint64_t x = 0;
        for (int chunk = 0; chunk < kChunks; ++chunk) {
          std::lock_guard<std::mutex> lock(turn);
          for (std::uint64_t i = 0; i < kDcasPerChunk; ++i, ++x) {
            ASSERT_TRUE(
                McasDcas::dcas(a, b, val(x), val(x), val(x + 1), val(x + 1)));
          }
        }
      });
    }
    for (auto& t : ts) t.join();
  }
  const auto after = McasDcas::descriptor_cache_stats();
  const auto slots = static_cast<std::uint64_t>(
      __builtin_popcountll(slots_seen.load(std::memory_order_relaxed)));
  EXPECT_LE(slots, static_cast<std::uint64_t>(kLive + 1));
  EXPECT_EQ(after.heap_fallbacks, before.heap_fallbacks);
  EXPECT_LE(after.mcas_pool_draws - before.mcas_pool_draws,
            McasDcas::kDescCacheCap * slots);
  EXPECT_LE(after.rdcss_pool_draws - before.rdcss_pool_draws,
            McasDcas::kDescCacheCap * slots);
}

TEST(Mcas, CollectDrainsAnExitedThreadsDescriptors) {
  // Descriptors retired by a thread that then exits sit in its released
  // slot's limbo. collect() adopts the slot for the drain, so they go back
  // to that slot's cache without racing a new owner of the slot.
  auto& domain = dcd::reclaim::global_ebr_domain();
  dcd::util::ThreadRegistry::self();  // keep this thread off the dead slot
  std::thread([] {
    Word a(val(0)), b(val(0));
    for (std::uint64_t i = 0; i < 1000; ++i) {
      ASSERT_TRUE(McasDcas::dcas(a, b, val(i), val(i), val(i + 1), val(i + 1)));
    }
  }).join();
  ASSERT_GT(domain.pending_count(), 0u);
  for (int i = 0; i < 3; ++i) domain.collect();
  EXPECT_EQ(domain.freed_count(), domain.retired_count());
}

TEST(Mcas, ManyWordsManyThreadsNoLostUpdates) {
  constexpr int kWords = 8;
  constexpr int kThreads = 4;
  constexpr int kIters = 4000;
  Word words[kWords];
  for (auto& w : words) McasDcas::store_init(w, val(0));
  dcd::util::SpinBarrier barrier(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      dcd::util::Xoshiro256 rng(t + 1);
      barrier.arrive_and_wait();
      for (int i = 0; i < kIters; ++i) {
        const std::size_t x = rng.below(kWords);
        std::size_t y = rng.below(kWords);
        if (y == x) y = (y + 1) % kWords;
        Word& first = words[std::min(x, y)];
        Word& second = words[std::max(x, y)];
        for (;;) {
          const std::uint64_t v1 = McasDcas::load(first);
          const std::uint64_t v2 = McasDcas::load(second);
          if (McasDcas::dcas(first, second, v1, v2,
                             val(decode_payload(v1) + 1),
                             val(decode_payload(v2) + 1))) {
            break;
          }
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  std::uint64_t total = 0;
  for (auto& w : words) total += decode_payload(McasDcas::load(w));
  EXPECT_EQ(total, static_cast<std::uint64_t>(2 * kThreads * kIters));
}

TEST(Mcas, ViewFormRetriesTransientFailures) {
  Word a(val(1)), b(val(2));
  std::uint64_t oa = val(1), ob = val(2);
  EXPECT_TRUE(McasDcas::dcas_view(a, b, oa, ob, val(3), val(4)));
  oa = val(1);
  ob = val(2);
  EXPECT_FALSE(McasDcas::dcas_view(a, b, oa, ob, val(9), val(9)));
  EXPECT_EQ(oa, val(3));
  EXPECT_EQ(ob, val(4));
}

}  // namespace

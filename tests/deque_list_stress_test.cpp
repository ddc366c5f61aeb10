// ListDeque concurrent stress: conservation, reclamation soundness, and
// sustained traffic through a bounded pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "dcd/deque/list_deque.hpp"
#include "dcd/util/barrier.hpp"
#include "dcd/verify/driver.hpp"

namespace {

using namespace dcd::deque;
using dcd::dcas::GlobalLockDcas;
using dcd::dcas::McasDcas;
using dcd::dcas::StripedLockDcas;

template <typename P>
class ListStressTest : public ::testing::Test {
 protected:
  using Deque = ListDeque<std::uint64_t, P>;
};

using Policies = ::testing::Types<GlobalLockDcas, StripedLockDcas, McasDcas>;
TYPED_TEST_SUITE(ListStressTest, Policies);

TYPED_TEST(ListStressTest, NoLossNoDuplication) {
  constexpr int kProducers = 2;
  constexpr int kConsumers = 2;
  constexpr std::uint64_t kPerProducer = 3000;
  typename TestFixture::Deque d(1 << 15);

  std::vector<std::vector<std::uint64_t>> popped(kConsumers);
  std::atomic<int> producers_left{kProducers};
  dcd::util::SpinBarrier barrier(kProducers + kConsumers);
  std::vector<std::thread> ts;

  for (int p = 0; p < kProducers; ++p) {
    ts.emplace_back([&, p] {
      barrier.arrive_and_wait();
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t v = (static_cast<std::uint64_t>(p) << 32) | i;
        if (p % 2 == 0) {
          ASSERT_EQ(d.push_right(v), PushResult::kOkay);
        } else {
          ASSERT_EQ(d.push_left(v), PushResult::kOkay);
        }
      }
      producers_left.fetch_sub(1, std::memory_order_release);
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    ts.emplace_back([&, c] {
      barrier.arrive_and_wait();
      int dry_sweeps = 0;
      while (dry_sweeps < 2) {
        auto v = (c % 2 == 0) ? d.pop_left() : d.pop_right();
        if (v.has_value()) {
          popped[c].push_back(*v);
          dry_sweeps = 0;
        } else if (producers_left.load(std::memory_order_acquire) == 0) {
          ++dry_sweeps;
        }
      }
    });
  }
  for (auto& t : ts) t.join();

  std::map<std::uint64_t, int> counts;
  for (auto& vec : popped) {
    for (const std::uint64_t v : vec) ++counts[v];
  }
  while (auto v = d.pop_left()) ++counts[*v];

  EXPECT_EQ(counts.size(), kProducers * kPerProducer);
  for (const auto& [v, n] : counts) {
    ASSERT_EQ(n, 1) << "value " << v << " popped " << n << " times";
  }
}

TYPED_TEST(ListStressTest, ConservationOnMixedWorkload) {
  typename TestFixture::Deque d(1 << 15);
  dcd::verify::WorkloadConfig cfg;
  cfg.threads = 4;
  cfg.ops_per_thread = 4000;
  cfg.seed = 99;
  const std::int64_t net = dcd::verify::run_unrecorded(d, cfg);
  ASSERT_GE(net, 0);
  EXPECT_EQ(d.size_unsynchronized(), static_cast<std::size_t>(net));
}

TYPED_TEST(ListStressTest, EmptyHeavyHammersDeleteRaces) {
  // Pop-dominated mix keeps the deque hovering around the Figure 9/16
  // states where the delete DCASes contend.
  typename TestFixture::Deque d(1 << 14);
  dcd::verify::WorkloadConfig cfg;
  cfg.threads = 4;
  cfg.ops_per_thread = 4000;
  cfg.seed = 1234;
  cfg.push_right = 1;
  cfg.push_left = 1;
  cfg.pop_right = 3;
  cfg.pop_left = 3;
  const std::int64_t net = dcd::verify::run_unrecorded(d, cfg);
  ASSERT_GE(net, 0);
  EXPECT_EQ(d.size_unsynchronized(), static_cast<std::size_t>(net));
}

TYPED_TEST(ListStressTest, BoundedPoolSustainsConcurrentTraffic) {
  // Nodes must cycle pool -> deque -> EBR limbo -> pool. Occasional
  // allocation failures are legitimate on an oversubscribed host (a
  // preempted thread pins its epoch for a whole timeslice, delaying
  // reclamation), so the assertion is about *recycling*, not zero failures:
  // total successful pushes must far exceed the pool capacity, which is
  // impossible without nodes returning to the free list.
  constexpr std::size_t kPoolCap = 1 << 10;
  typename TestFixture::Deque d(kPoolCap);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kIters = 4000;  // 16k pushes through a 1k pool
  std::atomic<std::uint64_t> ok_pops{0};
  std::atomic<bool> stuck{false};
  std::atomic<int> finished{0};
  dcd::util::SpinBarrier barrier(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      barrier.arrive_and_wait();
      for (std::uint64_t i = 0;
           i < kIters && !stuck.load(std::memory_order_relaxed); ++i) {
        int tries = 0;
        while (d.push_right((static_cast<std::uint64_t>(t) << 32) | i) !=
               PushResult::kOkay) {
          // Allocation failed: give reclamation a chance and retry.
          d.reclaimer().collect();
          std::this_thread::yield();
          if (++tries > 200000) {
            stuck.store(true, std::memory_order_relaxed);
            break;
          }
        }
        if (stuck.load(std::memory_order_relaxed)) break;
        auto v = (t % 2 == 0) ? d.pop_left() : d.pop_right();
        if (v.has_value()) ok_pops.fetch_add(1, std::memory_order_relaxed);
      }
      // Stay alive and keep collecting until everyone is done, so a
      // straggler's allocations never wait on this thread's limbo.
      finished.fetch_add(1, std::memory_order_relaxed);
      while (finished.load(std::memory_order_relaxed) < kThreads &&
             !stuck.load(std::memory_order_relaxed)) {
        d.reclaimer().collect();
        std::this_thread::yield();
      }
    });
  }
  for (auto& t : ts) t.join();
  ASSERT_FALSE(stuck.load(std::memory_order_relaxed))
      << "reclamation never freed pool nodes";
  // All kThreads * kIters pushes eventually succeeded through a pool a
  // fraction of that size, so nodes demonstrably recycled. Conservation:
  EXPECT_EQ(d.size_unsynchronized(),
            kThreads * kIters - ok_pops.load(std::memory_order_relaxed));
}

}  // namespace

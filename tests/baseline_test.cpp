// Baseline deques: sequential semantics + concurrent conservation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "dcd/baseline/arora_deque.hpp"
#include "dcd/baseline/mutex_deque.hpp"
#include "dcd/baseline/spin_deque.hpp"
#include "dcd/baseline/two_lock_deque.hpp"
#include "dcd/util/barrier.hpp"
#include "dcd/verify/driver.hpp"

namespace {

using namespace dcd::baseline;
using dcd::deque::PushResult;

template <typename D>
class FullApiBaselineTest : public ::testing::Test {
 protected:
  using Deque = D;
};

using FullApiDeques =
    ::testing::Types<MutexDeque<std::uint64_t>, SpinDeque<std::uint64_t>,
                     TwoLockDeque<std::uint64_t>>;
TYPED_TEST_SUITE(FullApiBaselineTest, FullApiDeques);

TYPED_TEST(FullApiBaselineTest, PaperExampleTrace) {
  typename TestFixture::Deque d(8);
  EXPECT_EQ(d.push_right(1), PushResult::kOkay);
  EXPECT_EQ(d.push_left(2), PushResult::kOkay);
  EXPECT_EQ(d.push_right(3), PushResult::kOkay);
  EXPECT_EQ(d.pop_left(), 2u);
  EXPECT_EQ(d.pop_left(), 1u);
  EXPECT_EQ(d.pop_left(), 3u);
  EXPECT_FALSE(d.pop_left().has_value());
}

TYPED_TEST(FullApiBaselineTest, Boundaries) {
  typename TestFixture::Deque d(2);
  EXPECT_FALSE(d.pop_right().has_value());
  EXPECT_EQ(d.push_right(1), PushResult::kOkay);
  EXPECT_EQ(d.push_left(2), PushResult::kOkay);
  EXPECT_EQ(d.push_right(3), PushResult::kFull);
  EXPECT_EQ(d.pop_right(), 1u);
  EXPECT_EQ(d.pop_right(), 2u);
  EXPECT_FALSE(d.pop_right().has_value());
}

TYPED_TEST(FullApiBaselineTest, ConcurrentConservation) {
  typename TestFixture::Deque d(1 << 12);
  dcd::verify::WorkloadConfig cfg;
  cfg.threads = 4;
  cfg.ops_per_thread = 4000;
  cfg.seed = 7;
  const std::int64_t net = dcd::verify::run_unrecorded(d, cfg);
  ASSERT_GE(net, 0);
  std::int64_t drained = 0;
  while (d.pop_left().has_value()) ++drained;
  EXPECT_EQ(drained, net);
}

TYPED_TEST(FullApiBaselineTest, NoLossUnderProducersConsumers) {
  typename TestFixture::Deque d(1 << 12);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPer = 2000;
  std::atomic<std::uint64_t> pops{0};
  dcd::util::SpinBarrier barrier(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      barrier.arrive_and_wait();
      for (std::uint64_t i = 0; i < kPer; ++i) {
        if (t % 2 == 0) {
          while (d.push_right(i) != PushResult::kOkay) {
            std::this_thread::yield();
          }
        } else {
          if ((t % 4 == 1 ? d.pop_left() : d.pop_right()).has_value()) {
            pops.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  std::uint64_t residue = 0;
  while (d.pop_left().has_value()) ++residue;
  EXPECT_EQ(pops.load(std::memory_order_relaxed) + residue,
            (kThreads / 2) * kPer);
}

// --- AroraDeque (restricted API) ------------------------------------------

TEST(AroraDeque, OwnerLifoOrder) {
  AroraDeque<std::uint64_t> d(64);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_EQ(d.push_bottom(i), PushResult::kOkay);
  }
  for (std::uint64_t i = 10; i-- > 0;) {
    ASSERT_EQ(d.pop_bottom(), i);
  }
  EXPECT_FALSE(d.pop_bottom().has_value());
}

TEST(AroraDeque, StealTakesOldest) {
  AroraDeque<std::uint64_t> d(64);
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_EQ(d.push_bottom(i), PushResult::kOkay);
  }
  EXPECT_EQ(d.steal(), 0u);
  EXPECT_EQ(d.steal(), 1u);
  EXPECT_EQ(d.pop_bottom(), 3u);
  EXPECT_EQ(d.pop_bottom(), 2u);
  EXPECT_FALSE(d.pop_bottom().has_value());
  EXPECT_FALSE(d.steal().has_value());
}

TEST(AroraDeque, FullWhenCapacityReached) {
  AroraDeque<std::uint64_t> d(2);
  EXPECT_EQ(d.push_bottom(1), PushResult::kOkay);
  EXPECT_EQ(d.push_bottom(2), PushResult::kOkay);
  EXPECT_EQ(d.push_bottom(3), PushResult::kFull);
  EXPECT_EQ(d.steal(), 1u);
  EXPECT_EQ(d.push_bottom(3), PushResult::kOkay);
}

TEST(AroraDeque, OwnerVsThievesExactlyOnce) {
  constexpr std::uint64_t kItems = 20000;
  constexpr int kThieves = 3;
  AroraDeque<std::uint64_t> d(1 << 12);
  std::vector<std::vector<std::uint64_t>> stolen(kThieves);
  std::vector<std::uint64_t> kept;
  std::atomic<bool> done{false};
  dcd::util::SpinBarrier barrier(kThieves + 1);

  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&, t] {
      barrier.arrive_and_wait();
      while (!done.load(std::memory_order_acquire)) {
        if (auto v = d.steal()) stolen[t].push_back(*v);
      }
      while (auto v = d.steal()) stolen[t].push_back(*v);
    });
  }
  std::thread owner([&] {
    barrier.arrive_and_wait();
    dcd::util::Xoshiro256 rng(3);
    std::uint64_t next = 0;
    while (next < kItems) {
      if (rng.chance(2, 3)) {
        if (d.push_bottom(next) == PushResult::kOkay) ++next;
      } else if (auto v = d.pop_bottom()) {
        kept.push_back(*v);
      }
    }
    done.store(true, std::memory_order_release);
  });
  owner.join();
  for (auto& t : thieves) t.join();

  std::map<std::uint64_t, int> counts;
  // Thieves stop on a failed CAS, which can be spurious; drain the residue
  // from the (now quiesced) owner end.
  while (auto v = d.pop_bottom()) ++counts[*v];
  for (const std::uint64_t v : kept) ++counts[v];
  for (auto& vec : stolen) {
    for (const std::uint64_t v : vec) ++counts[v];
  }
  EXPECT_EQ(counts.size(), kItems);
  for (const auto& [v, n] : counts) {
    ASSERT_EQ(n, 1) << "item " << v << " seen " << n << " times";
  }
}

}  // namespace

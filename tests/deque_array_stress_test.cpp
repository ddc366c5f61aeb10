// ArrayDeque concurrent stress: conservation + no duplication/invention,
// across policies, sizes and thread counts.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "dcd/deque/array_deque.hpp"
#include "dcd/util/barrier.hpp"
#include "dcd/verify/driver.hpp"

namespace {

using namespace dcd::deque;
using dcd::dcas::GlobalLockDcas;
using dcd::dcas::McasDcas;
using dcd::dcas::StripedLockDcas;

template <typename P>
class ArrayStressTest : public ::testing::Test {
 protected:
  using Deque = ArrayDeque<std::uint64_t, P>;
};

using Policies = ::testing::Types<GlobalLockDcas, StripedLockDcas, McasDcas>;
TYPED_TEST_SUITE(ArrayStressTest, Policies);

// Every pushed value must be popped exactly once (push until full is not
// reached; pops collect into per-thread sets; multiset equality at the end).
TYPED_TEST(ArrayStressTest, NoLossNoDuplication) {
  constexpr int kProducers = 2;
  constexpr int kConsumers = 2;
  constexpr std::uint64_t kPerProducer = 4000;
  typename TestFixture::Deque d(1 << 14);  // big enough to never fill

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
      for (;;) {
        auto v = (c % 2 == 0) ? d.pop_left() : d.pop_right();
        if (v.has_value()) {
          popped[c].push_back(*v);
        } else if (producers_left.load(std::memory_order_acquire) == 0) {
          // One more sweep: producers are done, deque may still be empty
          // transiently from this end only.
          auto v2 = (c % 2 == 0) ? d.pop_right() : d.pop_left();
          if (v2.has_value()) {
            popped[c].push_back(*v2);
          } else {
            break;
          }
        }
      }
    });
  }
  for (auto& t : ts) t.join();

  std::map<std::uint64_t, int> counts;
  for (auto& vec : popped) {
    for (const std::uint64_t v : vec) ++counts[v];
  }
  // Drain the residue single-threadedly.
  while (auto v = d.pop_left()) ++counts[*v];

  EXPECT_EQ(counts.size(), kProducers * kPerProducer);
  for (const auto& [v, n] : counts) {
    ASSERT_EQ(n, 1) << "value " << v << " popped " << n << " times";
  }
}

// Random mixed workload on a small deque: the residual population must
// equal successful pushes minus successful pops.
TYPED_TEST(ArrayStressTest, ConservationOnSmallDeque) {
  for (const std::size_t cap : {1u, 2u, 3u, 8u}) {
    typename TestFixture::Deque d(cap);
    dcd::verify::WorkloadConfig cfg;
    cfg.threads = 4;
    cfg.ops_per_thread = 3000;
    cfg.seed = 42 + cap;
    const std::int64_t net = dcd::verify::run_unrecorded(d, cfg);
    ASSERT_GE(net, 0);
    ASSERT_LE(net, static_cast<std::int64_t>(cap));
    EXPECT_EQ(d.size_unsynchronized(), static_cast<std::size_t>(net))
        << "capacity " << cap;
  }
}

// Opposite-end hammering on a 2-element deque maximises the Figure 6 race
// (popRight contending with popLeft for the last item).
TYPED_TEST(ArrayStressTest, LastItemRace) {
  typename TestFixture::Deque d(2);
  constexpr int kRounds = 4000;
  std::atomic<std::uint64_t> popped_count{0};
  dcd::util::SpinBarrier barrier(3);

  std::thread feeder([&] {
    barrier.arrive_and_wait();
    for (int i = 0; i < kRounds; ++i) {
      while (d.push_right(i + 1) != PushResult::kOkay) {
        std::this_thread::yield();
      }
    }
  });
  auto popper = [&](bool right) {
    barrier.arrive_and_wait();
    std::uint64_t got = 0;
    while (got * 2 < kRounds ||
           popped_count.load(std::memory_order_relaxed) < kRounds) {
      auto v = right ? d.pop_right() : d.pop_left();
      if (v.has_value()) {
        ++got;
        if (popped_count.fetch_add(1, std::memory_order_relaxed) + 1 >=
            kRounds) {
          break;
        }
      }
      if (popped_count.load(std::memory_order_relaxed) >= kRounds) break;
    }
  };
  std::thread right_popper(popper, true);
  std::thread left_popper(popper, false);
  feeder.join();
  right_popper.join();
  left_popper.join();
  // All pushed items were eventually popped (none lost to the race).
  std::size_t residue = 0;
  while (d.pop_left()) ++residue;
  EXPECT_EQ(popped_count.load(std::memory_order_relaxed) + residue,
            static_cast<std::uint64_t>(kRounds));
}

}  // namespace

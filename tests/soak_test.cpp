// Long-running soaks, excluded from the default run (DISABLED_ prefix).
// Run explicitly with:
//   ./build/tests/soak_test --gtest_also_run_disabled_tests
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "dcd/deque/array_deque.hpp"
#include "dcd/deque/list_deque.hpp"
#include "dcd/util/barrier.hpp"
#include "dcd/verify/driver.hpp"
#include "dcd/verify/linearizability.hpp"

namespace {

using namespace dcd::deque;
using namespace dcd::verify;
using dcd::dcas::McasDcas;

TEST(SoakTest, DISABLED_ArrayLinearizabilityMarathon) {
  // Thousands of small recorded windows; any seed that fails is printed.
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    ArrayDeque<std::uint64_t, McasDcas> d(2);
    WorkloadConfig cfg;
    cfg.threads = 3;
    cfg.ops_per_thread = 8;
    cfg.seed = seed;
    const History h = run_recorded(d, cfg);
    const CheckResult res = check_linearizable(h, 2);
    ASSERT_EQ(res.verdict, Verdict::kLinearizable)
        << "seed " << seed << ": " << res.message;
  }
}

TEST(SoakTest, DISABLED_ListLinearizabilityMarathon) {
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    ListDeque<std::uint64_t, McasDcas> d(1 << 12);
    WorkloadConfig cfg;
    cfg.threads = 3;
    cfg.ops_per_thread = 8;
    cfg.seed = seed;
    cfg.pop_right = 2;
    cfg.pop_left = 2;
    const History h = run_recorded(d, cfg);
    const CheckResult res = check_linearizable(h, SpecDeque::kUnbounded);
    ASSERT_EQ(res.verdict, Verdict::kLinearizable)
        << "seed " << seed << ": " << res.message;
  }
}

TEST(SoakTest, DISABLED_ListReclamationEndurance) {
  // 10M ops through a small pool: any leak or double-free surfaces as
  // allocation failure or corruption long before the end.
  ListDeque<std::uint64_t, McasDcas> d(1 << 12);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kIters = 2'500'000;
  std::atomic<std::uint64_t> fulls{0};
  dcd::util::SpinBarrier barrier(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      barrier.arrive_and_wait();
      for (std::uint64_t i = 0; i < kIters; ++i) {
        if (d.push_right((static_cast<std::uint64_t>(t) << 32) | i) ==
            PushResult::kFull) {
          fulls.fetch_add(1, std::memory_order_relaxed);
          d.reclaimer().collect();
        }
        (void)(t % 2 == 0 ? d.pop_left() : d.pop_right());
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_TRUE(d.check_rep_inv_unsynchronized());
}

}  // namespace

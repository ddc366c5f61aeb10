// Hardware adjacent-word DCAS (E1's "if you had hardware" reference).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "dcd/dcas/cmpxchg16b.hpp"
#include "dcd/util/barrier.hpp"

namespace {

using namespace dcd::dcas;

TEST(Cmpxchg16b, AvailabilityMatchesArchitecture) {
#if defined(__x86_64__)
  EXPECT_TRUE(Cmpxchg16bDcas::available());
#else
  EXPECT_FALSE(Cmpxchg16bDcas::available());
#endif
}

#if defined(__x86_64__)

TEST(Cmpxchg16b, TelemetryCountsOnlyExecutedHardwareOps) {
  // hw_dcas_calls is charged inside the x86 branch, so it counts exactly
  // the cmpxchg16b instructions that ran (on a non-x86 build the assert
  // path charges nothing — the counter must not claim hardware ops that
  // never executed). read() is not a policy-level op and must not count.
  Telemetry::reset();
  AdjacentPair p;
  p.lo.store(1, std::memory_order_relaxed);
  p.hi.store(2, std::memory_order_relaxed);
  EXPECT_TRUE(Cmpxchg16bDcas::dcas(p, 1, 2, 3, 4));    // success
  EXPECT_FALSE(Cmpxchg16bDcas::dcas(p, 1, 2, 9, 9));   // failure
  EXPECT_FALSE(Cmpxchg16bDcas::dcas(p, 1, 2, 9, 9));   // failure
  std::uint64_t lo = 0, hi = 0;
  Cmpxchg16bDcas::read(p, lo, hi);
  EXPECT_EQ(lo, 3u);
  EXPECT_EQ(hi, 4u);
  const Counters c = Telemetry::snapshot();
  EXPECT_EQ(c.hw_dcas_calls, 3u);
  EXPECT_EQ(c.hw_dcas_failures, 2u);
  EXPECT_EQ(c.dcas_calls, 0u);  // not a policy-level DCAS
}

TEST(Cmpxchg16b, SuccessAndFailure) {
  AdjacentPair p;
  p.lo.store(1, std::memory_order_relaxed);
  p.hi.store(2, std::memory_order_relaxed);
  EXPECT_TRUE(Cmpxchg16bDcas::dcas(p, 1, 2, 3, 4));
  EXPECT_EQ(p.lo.load(std::memory_order_relaxed), 3u);
  EXPECT_EQ(p.hi.load(std::memory_order_relaxed), 4u);
  EXPECT_FALSE(Cmpxchg16bDcas::dcas(p, 1, 2, 9, 9));
  EXPECT_EQ(p.lo.load(std::memory_order_relaxed), 3u);
  EXPECT_EQ(p.hi.load(std::memory_order_relaxed), 4u);
}

TEST(Cmpxchg16b, ReadIsAtomicPair) {
  AdjacentPair p;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t x = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      std::uint64_t lo, hi;
      Cmpxchg16bDcas::read(p, lo, hi);
      Cmpxchg16bDcas::dcas(p, lo, hi, x, x);  // keep lo == hi always
      ++x;
    }
  });
  for (int i = 0; i < 200000; ++i) {
    std::uint64_t lo, hi;
    Cmpxchg16bDcas::read(p, lo, hi);
    ASSERT_EQ(lo, hi);
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

TEST(Cmpxchg16b, ConcurrentPairedIncrements) {
  constexpr int kThreads = 4;
  constexpr int kIters = 20000;
  AdjacentPair p;
  dcd::util::SpinBarrier barrier(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&] {
      barrier.arrive_and_wait();
      for (int i = 0; i < kIters; ++i) {
        for (;;) {
          std::uint64_t lo, hi;
          Cmpxchg16bDcas::read(p, lo, hi);
          if (Cmpxchg16bDcas::dcas(p, lo, hi, lo + 1, hi + 1)) break;
        }
      }
    });
  }
  for (auto& t : ts) t.join();
  constexpr auto kTotal = static_cast<std::uint64_t>(kThreads * kIters);
  EXPECT_EQ(p.lo.load(std::memory_order_relaxed), kTotal);
  EXPECT_EQ(p.hi.load(std::memory_order_relaxed), kTotal);
}

#endif  // __x86_64__

}  // namespace

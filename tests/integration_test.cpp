// Cross-module integration: the deques driving a small work-stealing
// scheduler (the paper's §1 motivating application [4]) and a pipeline,
// comparing DCAS deques against the ABP baseline for result equivalence.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "dcd/baseline/arora_deque.hpp"
#include "dcd/deque/array_deque.hpp"
#include "dcd/deque/list_deque.hpp"
#include "dcd/util/barrier.hpp"
#include "dcd/util/rng.hpp"

namespace {

using namespace dcd::deque;
using dcd::dcas::McasDcas;

// A toy fork-join workload: each task either produces two child tasks or
// contributes its weight to a global sum. The correct total is independent
// of scheduling, so any loss/duplication in the deque shows up as a wrong
// sum.
//
// Owner thread w uses the right end of its own deque (push/pop); thieves
// take from the left end — exactly the deque-based load balancing the paper
// cites Arora et al. for, but on a fully general deque.
template <typename MakeDeque>
std::uint64_t run_work_stealing(MakeDeque make_deque, int workers,
                                std::uint64_t seed_tasks) {
  using Deque = typename std::invoke_result_t<MakeDeque>::element_type;
  std::vector<std::unique_ptr<Deque>> deques;
  for (int w = 0; w < workers; ++w) deques.push_back(make_deque());

  // Task encoding: (depth << 32) | weight. Tasks with depth > 0 fork two
  // children of depth-1; depth-0 tasks add their weight to the sum.
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::int64_t> outstanding{0};

  for (std::uint64_t i = 0; i < seed_tasks; ++i) {
    const std::uint64_t task = (3ull << 32) | (i + 1);
    outstanding.fetch_add(1, std::memory_order_relaxed);
    EXPECT_EQ(deques[i % workers]->push_right(task), PushResult::kOkay);
  }

  dcd::util::SpinBarrier barrier(workers);
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      dcd::util::Xoshiro256 rng(w + 1);
      barrier.arrive_and_wait();
      while (outstanding.load(std::memory_order_acquire) > 0) {
        std::optional<std::uint64_t> task = deques[w]->pop_right();
        if (!task) {  // steal from a victim's opposite end
          const int victim = static_cast<int>(rng.below(workers));
          task = deques[victim]->pop_left();
        }
        if (!task) {
          std::this_thread::yield();
          continue;
        }
        const std::uint64_t depth = *task >> 32;
        const std::uint64_t weight = *task & 0xffffffffull;
        if (depth == 0) {
          sum.fetch_add(weight, std::memory_order_relaxed);
          outstanding.fetch_sub(1, std::memory_order_acq_rel);
        } else {
          const std::uint64_t child = ((depth - 1) << 32) | weight;
          outstanding.fetch_add(1, std::memory_order_acq_rel);
          while (deques[w]->push_right(child) != PushResult::kOkay) {
            std::this_thread::yield();
          }
          while (deques[w]->push_right(child) != PushResult::kOkay) {
            std::this_thread::yield();
          }
          // Net accounting: the parent retires (-1) and two children are
          // born (+2) — the single fetch_add(1) above covers both.
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  return sum.load(std::memory_order_relaxed);
}

TEST(Integration, WorkStealingSumMatchesOnArrayDeque) {
  constexpr std::uint64_t kSeeds = 32;
  // Each seed task of depth 3 fans out to 2^3 leaves of its weight.
  std::uint64_t expect = 0;
  for (std::uint64_t i = 0; i < kSeeds; ++i) expect += 8 * (i + 1);
  const std::uint64_t got = run_work_stealing(
      [] {
        return std::make_unique<ArrayDeque<std::uint64_t, McasDcas>>(1
                                                                     << 12);
      },
      3, kSeeds);
  EXPECT_EQ(got, expect);
}

TEST(Integration, WorkStealingSumMatchesOnListDeque) {
  constexpr std::uint64_t kSeeds = 32;
  std::uint64_t expect = 0;
  for (std::uint64_t i = 0; i < kSeeds; ++i) expect += 8 * (i + 1);
  const std::uint64_t got = run_work_stealing(
      [] {
        return std::make_unique<ListDeque<std::uint64_t, McasDcas>>(1 << 14);
      },
      3, kSeeds);
  EXPECT_EQ(got, expect);
}

// Pipeline: stage 1 pushes right, stage 2 pops left, transforms, pushes to
// a second deque, stage 3 pops left and accumulates. FIFO order must be
// preserved end to end when each stage is single-threaded.
TEST(Integration, PipelinePreservesFifoOrder) {
  ArrayDeque<std::uint64_t, McasDcas> stage1(256);
  ListDeque<std::uint64_t, McasDcas> stage2(1 << 10);
  constexpr std::uint64_t kItems = 5000;

  std::vector<std::uint64_t> out;
  out.reserve(kItems);

  std::thread producer([&] {
    for (std::uint64_t i = 1; i <= kItems; ++i) {
      while (stage1.push_right(i) != PushResult::kOkay) {
        std::this_thread::yield();
      }
    }
  });
  std::thread transformer([&] {
    for (std::uint64_t n = 0; n < kItems;) {
      if (auto v = stage1.pop_left()) {
        while (stage2.push_right(*v * 2) != PushResult::kOkay) {
          std::this_thread::yield();
        }
        ++n;
      } else {
        std::this_thread::yield();
      }
    }
  });
  std::thread consumer([&] {
    for (std::uint64_t n = 0; n < kItems;) {
      if (auto v = stage2.pop_left()) {
        out.push_back(*v);
        ++n;
      } else {
        std::this_thread::yield();
      }
    }
  });
  producer.join();
  transformer.join();
  consumer.join();

  ASSERT_EQ(out.size(), kItems);
  for (std::uint64_t i = 0; i < kItems; ++i) {
    ASSERT_EQ(out[i], (i + 1) * 2);
  }
}

// The same owner/thief pattern must work on the restricted ABP deque,
// establishing the E6 comparison is apples-to-apples.
TEST(Integration, AbpDequeRunsTheStealWorkload) {
  using dcd::baseline::AroraDeque;
  constexpr int kWorkers = 3;
  constexpr std::uint64_t kSeeds = 32;
  std::vector<std::unique_ptr<AroraDeque<std::uint64_t>>> deques;
  for (int w = 0; w < kWorkers; ++w) {
    deques.push_back(std::make_unique<AroraDeque<std::uint64_t>>(1 << 12));
  }
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::int64_t> outstanding{0};
  for (std::uint64_t i = 0; i < kSeeds; ++i) {
    outstanding.fetch_add(1, std::memory_order_relaxed);
    ASSERT_EQ(deques[i % kWorkers]->push_bottom((3ull << 32) | (i + 1)),
              PushResult::kOkay);
  }
  dcd::util::SpinBarrier barrier(kWorkers);
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      dcd::util::Xoshiro256 rng(w + 17);
      barrier.arrive_and_wait();
      while (outstanding.load(std::memory_order_acquire) > 0) {
        std::optional<std::uint64_t> task = deques[w]->pop_bottom();
        if (!task) {
          task = deques[rng.below(kWorkers)]->steal();
        }
        if (!task) {
          std::this_thread::yield();
          continue;
        }
        const std::uint64_t depth = *task >> 32;
        const std::uint64_t weight = *task & 0xffffffffull;
        if (depth == 0) {
          sum.fetch_add(weight, std::memory_order_relaxed);
          outstanding.fetch_sub(1, std::memory_order_acq_rel);
        } else {
          const std::uint64_t child = ((depth - 1) << 32) | weight;
          outstanding.fetch_add(1, std::memory_order_acq_rel);
          while (deques[w]->push_bottom(child) != PushResult::kOkay) {
            std::this_thread::yield();
          }
          while (deques[w]->push_bottom(child) != PushResult::kOkay) {
            std::this_thread::yield();
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  std::uint64_t expect = 0;
  for (std::uint64_t i = 0; i < kSeeds; ++i) expect += 8 * (i + 1);
  EXPECT_EQ(sum.load(std::memory_order_relaxed), expect);
}

}  // namespace

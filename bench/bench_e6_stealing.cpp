// E6 — the load-balancing application (§1).
//
// "Deques ... currently used in load balancing algorithms [4]" — the
// paper's motivating workload, and the home turf of its related-work
// comparator: Arora-Blumofe-Plaxton's restricted CAS-only deque. Each
// iteration runs a complete fork-join tree to exhaustion over W workers;
// owners pop/push their own right end, idle workers steal the victim's left
// end. Expected shape: ABP wins (its restricted semantics exist for exactly
// this workload); among the general deques the array beats the list
// (no allocation), and lock-emulated DCAS beats MCAS (descriptor tax).
//
// Worker count sweeps 2/3/4/8 (state.range(0)); workers are pinned
// best-effort and the per-acquisition latency — from "try to get a task"
// to "got one", the number a work-stealing executor's responsiveness
// hangs on — is sampled into lat_p50/p99/p999_ns.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "dcd/baseline/arora_deque.hpp"
#include "dcd/deque/array_deque.hpp"
#include "dcd/deque/list_deque.hpp"
#include "dcd/util/barrier.hpp"
#include "dcd/util/rng.hpp"
#include "dcd/util/stats.hpp"
#include "dcd/util/topology.hpp"

namespace {

using namespace dcd::deque;
using dcd::bench::LatencySampler;
using dcd::bench::print_topology_once;
using dcd::dcas::GlobalLockDcas;
using dcd::dcas::McasDcas;
using dcd::dcas::StripedLockDcas;

constexpr std::uint64_t kSeedTasks = 16;
constexpr std::uint64_t kDepth = 6;  // 16 * 2^6 = 1024 leaf tasks

std::uint64_t make_task(std::uint64_t depth, std::uint64_t weight) {
  return (depth << 32) | weight;
}

// Generic run over (pop_own, push_own, steal) closures; returns leaf count
// and merges each worker's task-acquisition latency into `lat`.
template <typename Deques, typename PopOwn, typename PushOwn, typename Steal>
std::uint64_t run_tree(Deques& deques, int workers, PopOwn pop_own,
                       PushOwn push_own, Steal steal,
                       dcd::util::LatencyHistogram& lat) {
  std::atomic<std::uint64_t> executed{0};
  std::atomic<std::int64_t> outstanding{0};
  for (std::uint64_t i = 0; i < kSeedTasks; ++i) {
    outstanding.fetch_add(1, std::memory_order_relaxed);
    push_own(static_cast<int>(i % workers), make_task(kDepth, i + 1));
  }
  dcd::util::SpinBarrier barrier(workers);
  std::vector<dcd::util::LatencyHistogram> lats(
      static_cast<std::size_t>(workers));
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      dcd::util::pin_current_thread(static_cast<std::size_t>(w));
      dcd::util::Xoshiro256 rng(w + 1);
      // Tasks are chunky relative to a clock read; sample densely.
      LatencySampler sampler(8, static_cast<std::uint64_t>(w) + 1);
      barrier.arrive_and_wait();
      std::uint64_t t0 = sampler.begin();
      while (outstanding.load(std::memory_order_acquire) > 0) {
        std::optional<std::uint64_t> task = pop_own(w);
        if (!task) task = steal(static_cast<int>(rng.below(workers)));
        if (!task) {
          std::this_thread::yield();
          continue;  // keep t0: the wait is part of acquisition latency
        }
        sampler.end(t0);
        const std::uint64_t depth = *task >> 32;
        if (depth == 0) {
          executed.fetch_add(1, std::memory_order_relaxed);
          outstanding.fetch_sub(1, std::memory_order_acq_rel);
        } else {
          outstanding.fetch_add(1, std::memory_order_acq_rel);
          const std::uint64_t child =
              make_task(depth - 1, *task & 0xffffffffull);
          push_own(w, child);
          push_own(w, child);
        }
        t0 = sampler.begin();
      }
      lats[static_cast<std::size_t>(w)] = sampler.histogram();
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& h : lats) lat.merge(h);
  (void)deques;
  return executed.load(std::memory_order_relaxed);
}

template <typename D>
void BM_StealTreeGeneral(benchmark::State& state) {
  print_topology_once();
  const int workers = static_cast<int>(state.range(0));
  std::uint64_t leaves = 0;
  dcd::util::LatencyHistogram lat;
  for (auto _ : state) {
    std::vector<std::unique_ptr<D>> deques;
    for (int w = 0; w < workers; ++w) {
      deques.push_back(std::make_unique<D>(1 << 14));
    }
    leaves = run_tree(
        deques, workers, [&](int w) { return deques[w]->pop_right(); },
        [&](int w, std::uint64_t t) {
          while (deques[w]->push_right(t) != PushResult::kOkay) {
            std::this_thread::yield();
          }
        },
        [&](int v) { return deques[v]->pop_left(); }, lat);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(leaves));
  state.counters["leaf_tasks"] = static_cast<double>(leaves);
  dcd::bench::report_latency(state, lat);
}

void BM_StealTreeAbp(benchmark::State& state) {
  using D = dcd::baseline::AroraDeque<std::uint64_t>;
  const int workers = static_cast<int>(state.range(0));
  std::uint64_t leaves = 0;
  dcd::util::LatencyHistogram lat;
  for (auto _ : state) {
    std::vector<std::unique_ptr<D>> deques;
    for (int w = 0; w < workers; ++w) {
      deques.push_back(std::make_unique<D>(1 << 14));
    }
    leaves = run_tree(
        deques, workers, [&](int w) { return deques[w]->pop_bottom(); },
        [&](int w, std::uint64_t t) {
          while (deques[w]->push_bottom(t) != PushResult::kOkay) {
            std::this_thread::yield();
          }
        },
        [&](int v) { return deques[v]->steal(); }, lat);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(leaves));
  state.counters["leaf_tasks"] = static_cast<double>(leaves);
  dcd::bench::report_latency(state, lat);
}

using ArrayGlobal = ArrayDeque<std::uint64_t, GlobalLockDcas>;
using ArrayStriped = ArrayDeque<std::uint64_t, StripedLockDcas>;
using ArrayMcas = ArrayDeque<std::uint64_t, McasDcas>;
using ListGlobal = ListDeque<std::uint64_t, GlobalLockDcas>;
using ListMcas = ListDeque<std::uint64_t, McasDcas>;

// Worker-count sweep; the row name carries the count (".../4"). 3 stays in
// the sweep so the pre-sweep recordings' shape remains comparable.
#define E6_SWEEP(benchfn)                \
  benchfn->Arg(2)                        \
      ->Arg(3)                           \
      ->Arg(4)                           \
      ->Arg(8)                           \
      ->Unit(benchmark::kMillisecond)    \
      ->UseRealTime();

E6_SWEEP(BENCHMARK_TEMPLATE(BM_StealTreeGeneral, ArrayGlobal)
             ->Name("E6_StealTree/array_global_lock"))
E6_SWEEP(BENCHMARK_TEMPLATE(BM_StealTreeGeneral, ArrayStriped)
             ->Name("E6_StealTree/array_striped_lock"))
E6_SWEEP(BENCHMARK_TEMPLATE(BM_StealTreeGeneral, ArrayMcas)
             ->Name("E6_StealTree/array_mcas"))
E6_SWEEP(BENCHMARK_TEMPLATE(BM_StealTreeGeneral, ListGlobal)
             ->Name("E6_StealTree/list_global_lock"))
E6_SWEEP(BENCHMARK_TEMPLATE(BM_StealTreeGeneral, ListMcas)
             ->Name("E6_StealTree/list_mcas"))
E6_SWEEP(BENCHMARK(BM_StealTreeAbp)->Name("E6_StealTree/baseline_abp"))

#undef E6_SWEEP

}  // namespace

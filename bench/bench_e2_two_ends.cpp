// E2 — non-interfering ends (§1.2, §6).
//
// "The first [algorithm] ... allows uninterrupted concurrent access to both
//  ends of the deque" / "Both support non-interfering concurrent access to
//  opposite ends of the deque whenever possible."
//
// N threads work a deque pre-filled to mid-size, each doing push+pop
// pairs so the population stays centred (the ends never meet):
//   *_SameEnd      — all threads on the right end (worst case),
//   *_OppositeEnds — threads split across the ends by parity (the paper's
//                    claim: ~no interference beyond the memory system /
//                    DCAS emulation used).
// The baselines calibrate: MutexDeque serialises everything regardless;
// TwoLockDeque is the blocking analogue of the claim.
//
// Contention sweep: threads 2/4/8 per configuration (the recorded
// trajectory compares rows by full name, threads:N included). Workers are
// pinned best-effort (pinned_threads counter), per-op latency is sampled
// into lat_p50/p99/p999_ns, and retry pressure is reported as exact
// pause/yield-escalation deltas from the deques' thread-local
// AdaptiveBackoff sessions (retries/op, yields/op).
#include <benchmark/benchmark.h>

#include <cstdint>

#include "bench_common.hpp"
#include "dcd/baseline/mutex_deque.hpp"
#include "dcd/baseline/two_lock_deque.hpp"
#include "dcd/deque/array_deque.hpp"
#include "dcd/deque/list_deque.hpp"

namespace {

using namespace dcd::deque;
using dcd::bench::BackoffSnapshot;
using dcd::bench::fill;
using dcd::bench::LatencySampler;
using dcd::bench::print_topology_once;
using dcd::bench::RunTelemetry;
using dcd::dcas::GlobalLockDcas;
using dcd::dcas::McasDcas;
using dcd::dcas::StripedLockDcas;

constexpr std::size_t kPrefill = 512;
constexpr std::size_t kCapacity = 1 << 12;

template <typename D>
D* make_prefilled() {
  auto* d = new D(kCapacity);
  fill(*d, kPrefill);
  return d;
}

// Each iteration: one push+pop pair at this thread's assigned end.
template <typename D, bool kOpposite>
void BM_TwoEnds(benchmark::State& state) {
  static D* d = nullptr;
  static RunTelemetry* telemetry = nullptr;
  if (state.thread_index() == 0) {
    print_topology_once();
    d = make_prefilled<D>();
    telemetry = new RunTelemetry(state.threads());
  }
  dcd::bench::pin_bench_thread(state);
  const bool right = kOpposite ? (state.thread_index() % 2 == 0) : true;
  std::uint64_t v = 1000 + state.thread_index();
  LatencySampler lat(64,
                     1 + static_cast<std::uint64_t>(state.thread_index()));
  const BackoffSnapshot before = BackoffSnapshot::take();
  for (auto _ : state) {
    const std::uint64_t t0 = lat.begin();
    if (right) {
      (void)d->push_right(v);
      benchmark::DoNotOptimize(d->pop_right());
    } else {
      (void)d->push_left(v);
      benchmark::DoNotOptimize(d->pop_left());
    }
    lat.end(t0);
  }
  state.SetItemsProcessed(state.iterations() * 2);
  telemetry->submit(lat.histogram(), before);
  if (state.thread_index() == 0) {
    telemetry->report(state);
    dcd::bench::report_pinning(state);
    delete telemetry;
    telemetry = nullptr;
    delete d;
    d = nullptr;
  }
}

#define E2(DequeType, tag)                                       \
  BENCHMARK_TEMPLATE(BM_TwoEnds, DequeType, false)               \
      ->Name("E2_SameEnd/" tag)                                  \
      ->Threads(2)                                               \
      ->Threads(4)                                               \
      ->Threads(8)                                               \
      ->UseRealTime();                                           \
  BENCHMARK_TEMPLATE(BM_TwoEnds, DequeType, true)                \
      ->Name("E2_OppositeEnds/" tag)                             \
      ->Threads(2)                                               \
      ->Threads(4)                                               \
      ->Threads(8)                                               \
      ->UseRealTime();

using ArrayGlobal = ArrayDeque<std::uint64_t, GlobalLockDcas>;
using ArrayStriped = ArrayDeque<std::uint64_t, StripedLockDcas>;
using ArrayMcas = ArrayDeque<std::uint64_t, McasDcas>;
using ListGlobal = ListDeque<std::uint64_t, GlobalLockDcas>;
using ListStriped = ListDeque<std::uint64_t, StripedLockDcas>;
using ListMcas = ListDeque<std::uint64_t, McasDcas>;
using MutexD = dcd::baseline::MutexDeque<std::uint64_t>;
using TwoLockD = dcd::baseline::TwoLockDeque<std::uint64_t>;

E2(ArrayGlobal, "array_global_lock")
E2(ArrayStriped, "array_striped_lock")
E2(ArrayMcas, "array_mcas")
E2(ListGlobal, "list_global_lock")
E2(ListStriped, "list_striped_lock")
E2(ListMcas, "list_mcas")
E2(MutexD, "baseline_mutex")
E2(TwoLockD, "baseline_two_lock")

#undef E2

// Single-thread reference: the cost of a push+pop pair with no contention.
// Latency percentiles come along so the sweep has an uncontended tail to
// compare against.
template <typename D>
void BM_OneThreadPair(benchmark::State& state) {
  D d(kCapacity);
  fill(d, kPrefill);
  LatencySampler lat;
  for (auto _ : state) {
    const std::uint64_t t0 = lat.begin();
    (void)d.push_right(7);
    benchmark::DoNotOptimize(d.pop_right());
    lat.end(t0);
  }
  state.SetItemsProcessed(state.iterations() * 2);
  dcd::bench::report_latency(state, lat.histogram());
}
BENCHMARK(BM_OneThreadPair<ArrayMcas>)->Name("E2_OneThread/array_mcas");
BENCHMARK(BM_OneThreadPair<ListMcas>)->Name("E2_OneThread/list_mcas");
BENCHMARK(BM_OneThreadPair<ArrayGlobal>)
    ->Name("E2_OneThread/array_global_lock");
BENCHMARK(BM_OneThreadPair<MutexD>)->Name("E2_OneThread/baseline_mutex");

}  // namespace

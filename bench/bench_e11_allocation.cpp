// E11 — allocation scalability: per-thread magazines vs the shared slab
// (DESIGN.md §13).
//
// The paper assumes a garbage collector, so its cost model never prices
// allocation. Our substitution (NodePool + EBR) put every push's allocate
// and every reclaimed pop's deallocate on ONE Treiber head — a shared CAS
// hot spot the paper's DCAS analysis never sees. E11 measures the fix:
//
//   E11_DequeMixed/*    — the list deque under a mixed 4-op workload, the
//                         magazine pool (default) against the shared
//                         NodePool, threads 1/2/4/8. Magazine rows attach
//                         magazine_hit/op (allocator ops served without
//                         touching the shared head) and refill/flush rates.
//   E11_PoolCycle/*     — the allocator alone: allocate + EBR-retire per
//                         iteration (frees must flow through EBR; a direct
//                         concurrent deallocate would break the free-list
//                         ABA contract in node_pool.hpp).
//   E11_OneThread/*     — single-threaded acceptance gate with exact
//                         telemetry: dcas/op and cas/op must be IDENTICAL
//                         for magazine and shared rows (the magazine layer
//                         adds no policy-level operations; its own atomics
//                         are raw and thread-local).
//
// Single-core hosts (the CI box): threads 2..8 are preemptively
// interleaved, so absolute throughput compresses, but the magazine rows
// still win by dodging the shared head's failed-CAS retries — the
// magazine_hit/op column explains exactly why.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "bench_common.hpp"
#include "dcd/deque/list_deque.hpp"
#include "dcd/reclaim/ebr.hpp"
#include "dcd/reclaim/magazine_pool.hpp"
#include "dcd/reclaim/node_pool.hpp"
#include "dcd/reclaim/policies.hpp"

namespace {

using namespace dcd::deque;
using dcd::bench::BackoffSnapshot;
using dcd::bench::fill;
using dcd::bench::LatencySampler;
using dcd::bench::mixed_op;
using dcd::bench::print_topology_once;
using dcd::bench::report_telemetry;
using dcd::bench::reset_telemetry;
using dcd::bench::RunTelemetry;
using dcd::dcas::McasDcas;
using dcd::dcas::StripedLockDcas;
using dcd::reclaim::EbrDomain;
using dcd::reclaim::EbrReclaim;
using dcd::reclaim::MagazinePool;
using dcd::reclaim::MagazineStats;
using dcd::reclaim::NodePool;

constexpr std::size_t kPrefill = 256;
// Generous: EBR limbo holds churn-rate x grace-latency nodes in flight
// (Little's law); an undersized pool would make this an exhaustion
// benchmark instead of an allocation one.
constexpr std::size_t kCapacity = 1 << 16;

template <typename D>
constexpr bool kHasMagazine =
    requires(const D& d) { d.pool().stats(); };

// Attach allocator telemetry for magazine-backed deques: hit share of all
// allocator ops plus refill/flush frequency (the shared-head touches that
// remain). Quiescent-exact — called after the workers stop.
template <typename D>
void attach_pool_counters(benchmark::State& state, const D& d,
                          double total_ops) {
  if constexpr (kHasMagazine<D>) {
    const MagazineStats s = d.pool().stats();
    const double allocs = static_cast<double>(s.hits + s.misses);
    if (allocs > 0) {
      state.counters["magazine_hit_rate"] =
          static_cast<double>(s.hits) / allocs;
    }
    if (total_ops > 0) {
      state.counters["magazine_hit/op"] =
          static_cast<double>(s.hits) / total_ops;
      state.counters["refill/op"] =
          static_cast<double>(s.refills) / total_ops;
      state.counters["flush/op"] =
          static_cast<double>(s.flushes) / total_ops;
    }
  }
}

// --- deque-level mixed workload ---------------------------------------------

template <typename D>
void BM_DequeMixed(benchmark::State& state) {
  static D* d = nullptr;
  static RunTelemetry* telemetry = nullptr;
  if (state.thread_index() == 0) {
    print_topology_once();
    d = new D(kCapacity);
    fill(*d, kPrefill);
    telemetry = new RunTelemetry(state.threads());
  }
  dcd::bench::pin_bench_thread(state);
  dcd::util::Xoshiro256 rng(0x5eedULL +
                            static_cast<std::uint64_t>(state.thread_index()));
  const std::uint64_t v = 1000 + static_cast<std::uint64_t>(
                                     state.thread_index());
  // Hand-rolled mixed_op so push-full failures are distinguishable from
  // pop-empty: an empty pop is a completed (linearizable) operation, but a
  // full push is allocator starvation — counting its near-no-op retry as
  // throughput would reward the starving configuration.
  std::int64_t push_full = 0;
  LatencySampler lat(64,
                     1 + static_cast<std::uint64_t>(state.thread_index()));
  const BackoffSnapshot before = BackoffSnapshot::take();
  for (auto _ : state) {
    const std::uint64_t t0 = lat.begin();
    switch (rng.below(4)) {
      case 0:
        if (d->push_right(v) != PushResult::kOkay) ++push_full;
        break;
      case 1:
        if (d->push_left(v) != PushResult::kOkay) ++push_full;
        break;
      case 2:
        benchmark::DoNotOptimize(d->pop_right());
        break;
      default:
        benchmark::DoNotOptimize(d->pop_left());
        break;
    }
    lat.end(t0);
  }
  state.SetItemsProcessed(state.iterations() - push_full);
  telemetry->submit(lat.histogram(), before);
  if (state.thread_index() == 0) {
    telemetry->report(state);
    dcd::bench::report_pinning(state);
    delete telemetry;
    telemetry = nullptr;
    attach_pool_counters(state, *d,
                         static_cast<double>(state.iterations()) *
                             static_cast<double>(state.threads()));
    delete d;
    d = nullptr;
  }
}

using ListMcasMagazine =
    ListDeque<std::uint64_t, McasDcas, EbrReclaim, MagazinePool>;
using ListMcasShared = ListDeque<std::uint64_t, McasDcas, EbrReclaim, NodePool>;
using ListStripedMagazine =
    ListDeque<std::uint64_t, StripedLockDcas, EbrReclaim, MagazinePool>;
using ListStripedShared =
    ListDeque<std::uint64_t, StripedLockDcas, EbrReclaim, NodePool>;

#define E11_MIXED(DequeType, tag)                 \
  BENCHMARK_TEMPLATE(BM_DequeMixed, DequeType)    \
      ->Name("E11_DequeMixed/" tag)               \
      ->Threads(1)                                \
      ->Threads(2)                                \
      ->Threads(4)                                \
      ->Threads(8)                                \
      ->UseRealTime();

E11_MIXED(ListMcasMagazine, "list_mcas_magazine")
E11_MIXED(ListMcasShared, "list_mcas_shared")
E11_MIXED(ListStripedMagazine, "list_striped_magazine")
E11_MIXED(ListStripedShared, "list_striped_shared")

#undef E11_MIXED

// --- allocator-only cycle ---------------------------------------------------

// One allocate + one EBR retire per iteration: the allocator's own
// scalability with the deque out of the picture. The EBR callbacks recycle
// nodes into the retiring thread's magazine (or back onto the shared
// head), so this is the steady-state alloc/free loop a deque workload
// induces.
template <typename PoolT>
void BM_PoolCycle(benchmark::State& state) {
  static PoolT* pool = nullptr;
  static EbrDomain* domain = nullptr;
  static RunTelemetry* telemetry = nullptr;
  if (state.thread_index() == 0) {
    print_topology_once();
    pool = new PoolT(64, 1 << 15);
    domain = new EbrDomain();
    telemetry = new RunTelemetry(state.threads());
  }
  dcd::bench::pin_bench_thread(state);
  std::int64_t served = 0;
  LatencySampler lat(64,
                     1 + static_cast<std::uint64_t>(state.thread_index()));
  const BackoffSnapshot before = BackoffSnapshot::take();
  for (auto _ : state) {
    const std::uint64_t t0 = lat.begin();
    EbrDomain::Guard guard(*domain);
    void* p = pool->allocate();
    if (p == nullptr) {
      // Same discipline as ListDeque::allocate_node: exhaustion usually
      // means the inventory is aging in limbo — collect and retry.
      domain->collect();
      p = pool->allocate();
    }
    if (p != nullptr) {
      domain->retire(p, PoolT::deallocate_cb, pool);
      ++served;
    }
    benchmark::DoNotOptimize(p);
    lat.end(t0);
  }
  // Only completed cycles count: when limbo outpaces the grace period a
  // failed allocate is a near-no-op, and counting it would reward
  // exhaustion with apparent throughput.
  state.SetItemsProcessed(served);
  telemetry->submit(lat.histogram(), before);
  if (state.thread_index() == 0) {
    telemetry->report(state);
    dcd::bench::report_pinning(state);
    delete telemetry;
    telemetry = nullptr;
    attach_pool_counters(state, *pool, 0);
    delete domain;  // drains limbo back into the pool
    delete pool;
    domain = nullptr;
    pool = nullptr;
  }
}

// MagazinePool exposes stats() directly; adapt it to the deque-style
// `pool()` accessor attach_pool_counters expects.
struct MagazinePoolRef {
  const MagazinePool& p;
  const MagazinePool& pool() const { return p; }
};

template <>
void attach_pool_counters<MagazinePool>(benchmark::State& state,
                                        const MagazinePool& p,
                                        double total_ops) {
  attach_pool_counters(state, MagazinePoolRef{p}, total_ops);
}

#define E11_CYCLE(PoolType, tag)                \
  BENCHMARK_TEMPLATE(BM_PoolCycle, PoolType)    \
      ->Name("E11_PoolCycle/" tag)              \
      ->Threads(1)                              \
      ->Threads(2)                              \
      ->Threads(4)                              \
      ->Threads(8)                              \
      ->UseRealTime();

E11_CYCLE(MagazinePool, "magazine")
E11_CYCLE(NodePool, "shared")

#undef E11_CYCLE

// --- single-thread acceptance gate ------------------------------------------

template <typename D>
void BM_OneThreadMixed(benchmark::State& state) {
  D d(kCapacity);
  fill(d, kPrefill);
  dcd::util::Xoshiro256 rng(0x5eedULL);
  reset_telemetry();
  for (auto _ : state) {
    (void)mixed_op(d, rng, 7);
  }
  report_telemetry(state);  // dcas/op must match across the two rows
  attach_pool_counters(state, d, static_cast<double>(state.iterations()));
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_OneThreadMixed<ListMcasMagazine>)
    ->Name("E11_OneThread/list_mcas_magazine");
BENCHMARK(BM_OneThreadMixed<ListMcasShared>)
    ->Name("E11_OneThread/list_mcas_shared");

}  // namespace

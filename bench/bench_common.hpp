// Shared helpers for the experiment harness (E1–E8).
//
// Conventions: every binary prints the host topology once (single-core
// hosts interleave preemptively — see EXPERIMENTS.md), registers the
// compiler / build type / affinity mechanism as benchmark context (so the
// JSON artifacts record how honest the run was — scripts/bench_to_json.py
// refuses debug-build or single-CPU recordings), reports items/sec via
// state.SetItemsProcessed, and attaches primitive-operation counts from
// dcd::dcas::Telemetry where they are exact (single-threaded runs).
// Contention sweeps additionally pin each worker to a CPU (best effort,
// recorded as the pinned_threads counter) and sample per-op latency into
// sub-bucketed histograms reported as lat_p50/p99/p999_ns.
#pragma once

#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "dcd/dcas/telemetry.hpp"
#include "dcd/deque/types.hpp"
#include "dcd/util/backoff.hpp"
#include "dcd/util/rng.hpp"
#include "dcd/util/stats.hpp"
#include "dcd/util/topology.hpp"

namespace dcd::bench {

namespace detail {

inline std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// Registered before main() via the inline-variable initializer below, so
// the keys are in the reporter's context block (which google-benchmark
// prints before any benchmark runs). AddCustomContext is safe pre-main:
// the library's global context map is a lazily-allocated static pointer.
// dcd_build_type is OUR binaries' NDEBUG state — gbench's own
// library_build_type describes how libbenchmark was compiled, which says
// nothing about whether the code under test ran with asserts on;
// bench_to_json.py refuses a recording when either says "debug".
inline const bool kContextRegistered = [] {
  benchmark::AddCustomContext("dcd_compiler", compiler_id());
  benchmark::AddCustomContext("dcd_build_type",
#ifdef NDEBUG
                              "release"
#else
                              "debug"
#endif
  );
  benchmark::AddCustomContext("dcd_affinity", util::affinity_mechanism());
  return true;
}();

inline std::atomic<std::int64_t> pinned_count{0};

}  // namespace detail

inline void print_topology_once() {
  (void)detail::kContextRegistered;  // odr-use keeps the initializer live
  static const bool done = [] {
    // stderr, not stdout: --benchmark_format=json writes the report to
    // stdout and a comment line mid-stream corrupts it.
    std::fprintf(stderr, "# %s\n", util::probe_topology().describe().c_str());
    return true;
  }();
  (void)done;
}

// Best-effort pin of this benchmark thread to CPU thread_index (mod the
// CPU count). Call once per thread before the timed loop; thread 0
// reports and resets the tally post-loop via report_pinning, so the
// artifact row says how many of the sweep's threads actually ran pinned
// (0 on hosts without pthread_setaffinity_np — recorded, not fatal).
inline void pin_bench_thread(benchmark::State& state) {
  if (util::pin_current_thread(
          static_cast<std::size_t>(state.thread_index()))) {
    detail::pinned_count.fetch_add(1, std::memory_order_relaxed);
  }
}

inline void report_pinning(benchmark::State& state) {
  state.counters["pinned_threads"] = static_cast<double>(
      detail::pinned_count.exchange(0, std::memory_order_relaxed));
}

// Pre-fills a deque to `n` items via push_right.
template <typename D>
void fill(D& d, std::size_t n, std::uint64_t base = 1) {
  for (std::size_t i = 0; i < n; ++i) {
    (void)d.push_right(base + i);
  }
}

// One op of a mixed workload; returns +1/-1/0 population delta.
template <typename D>
int mixed_op(D& d, util::Xoshiro256& rng, std::uint64_t value) {
  switch (rng.below(4)) {
    case 0:
      return d.push_right(value) == deque::PushResult::kOkay ? 1 : 0;
    case 1:
      return d.push_left(value) == deque::PushResult::kOkay ? 1 : 0;
    case 2:
      return d.pop_right().has_value() ? -1 : 0;
    default:
      return d.pop_left().has_value() ? -1 : 0;
  }
}

// Samples the latency of one operation in every `stride` on average into a
// per-thread LatencyHistogram. Sampling keeps the two steady_clock reads
// off most iterations so the measurement does not dominate ns-scale ops;
// the histogram still accumulates thousands of samples per second of run.
// The gaps between samples are seeded-random (uniform in [1, 2*stride-1],
// mean `stride`), not fixed: a fixed stride locks onto any periodic cost
// with a matching period — EBR drains every EbrDomain::kDrainThreshold
// (64) retires, and a stride of 64 put a drain in nearly every sample,
// reading a single-thread ListDeque p50 of 4.5 us instead of 0.69 us.
// begin() returns 0 when this op is not sampled (a real steady_clock
// timestamp is never 0ns).
class LatencySampler {
 public:
  explicit LatencySampler(std::uint32_t stride = 64,
                          std::uint64_t seed = 1) noexcept
      : span_(stride <= 1 ? 1 : 2 * std::uint64_t{stride} - 1),
        rng_(seed),
        until_sample_(next_gap()) {}

  std::uint64_t begin() noexcept {
    if (--until_sample_ != 0) return 0;
    until_sample_ = next_gap();
    return now_ns();
  }

  void end(std::uint64_t t0) noexcept {
    if (t0 == 0) return;
    const std::uint64_t t1 = now_ns();
    hist_.record(t1 > t0 ? t1 - t0 : 0);
  }

  const util::LatencyHistogram& histogram() const noexcept { return hist_; }

  static std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

 private:
  std::uint64_t next_gap() noexcept { return 1 + rng_.below(span_); }

  std::uint64_t span_;
  util::Xoshiro256 rng_;
  std::uint64_t until_sample_;
  util::LatencyHistogram hist_;
};

// Attaches the standard latency-percentile counters from a merged
// histogram. These are the columns bench_compare.py's p99-inflation gate
// reads; keep the names stable.
inline void report_latency(benchmark::State& state,
                           const util::LatencyHistogram& h) {
  if (h.total() == 0) return;
  state.counters["lat_p50_ns"] = static_cast<double>(h.percentile(0.50));
  state.counters["lat_p99_ns"] = static_cast<double>(h.percentile(0.99));
  state.counters["lat_p999_ns"] = static_cast<double>(h.percentile(0.999));
  state.counters["lat_samples"] = static_cast<double>(h.total());
}

// Snapshot of the calling thread's persistent AdaptiveBackoff counters
// (the deques back off through AdaptiveBackoff::tl() sessions — see
// DESIGN.md §13.2 — so a bench-owned Backoff object never sees their
// retries; deltas around the timed loop do).
struct BackoffSnapshot {
  std::uint64_t pauses = 0;
  std::uint64_t yields = 0;

  static BackoffSnapshot take() noexcept {
    const auto& b = util::AdaptiveBackoff::tl();
    return {b.pauses(), b.yields()};
  }
};

// Per-run collector for worker-thread telemetry: latency histograms and
// backoff-pressure deltas. Protocol (mirrors the static-D* setup/teardown
// idiom google-benchmark documents for multithreaded benches):
//
//   thread 0, pre-loop:   telemetry = new RunTelemetry(state.threads());
//   every thread, pre-loop:  auto before = BackoffSnapshot::take();
//   every thread, post-loop: telemetry->submit(sampler.histogram(), before);
//   thread 0, post-loop:  telemetry->report(state); delete telemetry;
//
// report() spin-waits for the remaining submissions; the wait is bounded
// because every thread has already left the timed loop through the
// library's stop barrier before any post-loop code runs.
class RunTelemetry {
 public:
  explicit RunTelemetry(int threads) noexcept : pending_(threads) {}

  void submit(const util::LatencyHistogram& h, const BackoffSnapshot& before) {
    const auto& b = util::AdaptiveBackoff::tl();
    pauses_.fetch_add(b.pauses() - before.pauses, std::memory_order_relaxed);
    yields_.fetch_add(b.yields() - before.yields, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      merged_.merge(h);
    }
    pending_.fetch_sub(1, std::memory_order_release);
  }

  void report(benchmark::State& state) {
    while (pending_.load(std::memory_order_acquire) > 0) {
      std::this_thread::yield();
    }
    report_latency(state, merged_);
    const auto ops = static_cast<double>(state.iterations()) *
                     static_cast<double>(state.threads());
    if (ops > 0) {
      state.counters["retries/op"] =
          static_cast<double>(pauses_.load(std::memory_order_relaxed)) / ops;
      state.counters["yields/op"] =
          static_cast<double>(yields_.load(std::memory_order_relaxed)) / ops;
    }
  }

 private:
  std::mutex mu_;
  util::LatencyHistogram merged_;
  std::atomic<std::uint64_t> pauses_{0};
  std::atomic<std::uint64_t> yields_{0};
  std::atomic<int> pending_;
};

// Attaches exact per-op DCAS/CAS/load counters to a *single-threaded*
// benchmark: call reset_telemetry() before the loop and
// report_telemetry(state) after it.
inline void reset_telemetry() { dcas::Telemetry::reset(); }

inline void report_telemetry(benchmark::State& state) {
  const dcas::Counters c = dcas::Telemetry::snapshot();
  const auto iters = static_cast<double>(state.iterations());
  if (iters == 0) return;
  state.counters["dcas/op"] =
      static_cast<double>(c.dcas_calls) / iters;
  state.counters["dcas_fail/op"] =
      static_cast<double>(c.dcas_failures) / iters;
  state.counters["cas/op"] = static_cast<double>(c.cas_ops) / iters;
  state.counters["load/op"] = static_cast<double>(c.loads) / iters;
}

// Attaches retry-pressure counters from a set of Backoff objects, one per
// worker, for benches that drive their own Backoff instances. Both
// numbers are *exact event counts*: pauses() is every pause() call and
// yields() is every escalation to sched_yield. Neither may be derived
// from the spin budget — the budget stops doubling once the backoff
// escalates to yield, so a budget-derived pressure silently caps exactly
// where the contention gets interesting (util_test's
// YieldsCountsEscalationsExactly pins this down). Benches over the
// deques' internal thread-local sessions use RunTelemetry instead.
template <typename BackoffRange>
void report_backoff_pressure(benchmark::State& state,
                             const BackoffRange& backoffs) {
  std::uint64_t pauses = 0;
  std::uint64_t yields = 0;
  for (const auto& b : backoffs) {
    pauses += b.pauses();
    yields += b.yields();
  }
  const auto iters = static_cast<double>(state.iterations());
  if (iters == 0) return;
  state.counters["retries/op"] = static_cast<double>(pauses) / iters;
  state.counters["yields/op"] = static_cast<double>(yields) / iters;
}

}  // namespace dcd::bench

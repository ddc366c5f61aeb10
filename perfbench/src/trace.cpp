#include "trace.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

namespace perfbench {

namespace {

// Every thread that ever records a span owns one block for the rest of the
// process (executors are rebuilt per setup repeat, so threads come and go;
// their final counts stay in the sums and cancel out of window deltas).
constexpr std::size_t kMaxTracedThreads = 256;
detail::ThreadTrace g_traces[kMaxTracedThreads];
std::atomic<std::size_t> g_claimed{0};

double calibrate() {
#if defined(__x86_64__) || defined(__i386__)
  const auto s0 = std::chrono::steady_clock::now();
  const std::uint64_t t0 = ticks();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto s1 = std::chrono::steady_clock::now();
  const std::uint64_t t1 = ticks();
  const double ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(s1 - s0).count());
  return ns / static_cast<double>(t1 - t0);
#else
  return 1.0;
#endif
}

}  // namespace

std::uint64_t steady_ticks() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double ns_per_tick() {
  static const double v = calibrate();
  return v;
}

detail::ThreadTrace& detail::claim_thread_trace() {
  const std::size_t i = g_claimed.fetch_add(1, std::memory_order_acq_rel);
  if (i >= kMaxTracedThreads) {
    std::fprintf(stderr, "perfbench: more than %zu traced threads\n",
                 kMaxTracedThreads);
    std::abort();
  }
  return g_traces[i];
}

void trace_mark_client() {
  detail::my_trace().client.store(true, std::memory_order_relaxed);
}

TraceTotals trace_snapshot() {
  TraceTotals s;
  const std::size_t n = g_claimed.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n && i < kMaxTracedThreads; ++i) {
    const detail::ThreadTrace& t = g_traces[i];
    for (int l = 0; l < kLayers; ++l) {
      s.self[l] += t.self[l].load(std::memory_order_relaxed);
    }
    if (!t.client.load(std::memory_order_relaxed)) {
      s.root += t.root.load(std::memory_order_relaxed);
    }
    for (int e = 0; e < kEvents; ++e) {
      s.count[e] += t.count[e].load(std::memory_order_relaxed);
      s.ticks[e] += t.ticks[e].load(std::memory_order_relaxed);
    }
  }
  return s;
}

TraceTotals TraceTotals::operator-(const TraceTotals& o) const {
  TraceTotals d;
  for (int l = 0; l < kLayers; ++l) d.self[l] = self[l] - o.self[l];
  d.root = root - o.root;
  for (int e = 0; e < kEvents; ++e) {
    d.count[e] = count[e] - o.count[e];
    d.ticks[e] = ticks[e] - o.ticks[e];
  }
  return d;
}

}  // namespace perfbench

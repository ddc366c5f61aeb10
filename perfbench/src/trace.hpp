// Benchmark-side tracing: spans recorded at each product layer's public
// interface, never inside it.
//
// The deques and the executor are templates over their policies, so the
// traced run swaps in timing wrappers that live here:
//
//   TracedDcas<Inner>  a DcasPolicy over McasDcas            -> layer dcas
//   TracedPool         a PoolPolicy over MagazinePool        -> layer reclaim
//   TracedReclaim      a ReclaimPolicy over EbrReclaim       -> layer reclaim
//   TracedDeque<D>     push/pop wrapper + exec::DequeTraits  -> layer deque
//   TaskSpan<true>     around each benchmark task body       -> task bodies
//
// Each span adds its duration to its event's total and its *self* time
// (duration minus the time its child spans cover) to its layer, so the
// layers' self times add up to the covered time with nothing counted
// twice. Counters are per-thread, single-writer relaxed atomics, so a
// window delta can be read while the workers still run. The untraced run
// instantiates the plain product types: end-to-end numbers never pay for
// any of this.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "dcd/dcas/concepts.hpp"
#include "dcd/dcas/word.hpp"
#include "dcd/deque/types.hpp"
#include "dcd/exec/deque_traits.hpp"
#include "dcd/reclaim/concepts.hpp"
#include "dcd/reclaim/magazine_pool.hpp"
#include "dcd/reclaim/policies.hpp"
#include "dcd/util/align.hpp"
#include "dcd/util/assert.hpp"
#include "dcd/util/backoff.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace perfbench {

// Span clock: the TSC on x86 (constant_tsc; converted with ns_per_tick(),
// calibrated against steady_clock at start-up), steady_clock elsewhere.
std::uint64_t steady_ticks() noexcept;
inline std::uint64_t ticks() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return steady_ticks();
#endif
}
double ns_per_tick();

enum Layer : int { kLayerDcas, kLayerDeque, kLayerReclaim, kLayerTask, kLayers };

enum Event : int {
  kEvLoad,
  kEvCas,
  kEvDcas,
  kEvDcasOk,  // count only
  kEvPush,
  kEvPop,
  kEvPopEmpty,  // count only
  kEvSteal,
  kEvStealEmpty,  // count only
  kEvInject,
  kEvAlloc,
  kEvFree,
  kEvGuard,  // enter + exit of one operation guard
  kEvRetire,
  kEvTask,
  kEvBackoffPauses,  // count only: AdaptiveBackoff pauses inside deque ops
  kEvBackoffYields,  // count only
  kEvents
};

// Plain sums over threads; window deltas are `after - before`.
struct TraceTotals {
  std::uint64_t self[kLayers] = {};
  std::uint64_t root = 0;  // ticks covered by outermost spans (load threads)
  std::uint64_t count[kEvents] = {};
  std::uint64_t ticks[kEvents] = {};

  TraceTotals operator-(const TraceTotals& o) const;
  double ns(Event e) const { return static_cast<double>(ticks[e]) * ns_per_tick(); }
  double self_ns(Layer l) const {
    return static_cast<double>(self[l]) * ns_per_tick();
  }
  double root_ns() const { return static_cast<double>(root) * ns_per_tick(); }
  // Mean duration of one event in ns (0 when none happened).
  double mean_ns(Event e) const {
    return count[e] == 0 ? 0.0 : ns(e) / static_cast<double>(count[e]);
  }
};

// Sum of every traced thread's counters so far.
TraceTotals trace_snapshot();

// Exclude the calling thread's spans from `root` (the client thread of the
// executor workloads: its CPU is not part of the system's CPU either).
void trace_mark_client();

namespace detail {

inline constexpr int kMaxDepth = 16;

struct alignas(dcd::util::kCacheLineSize) ThreadTrace {
  std::atomic<std::uint64_t> self[kLayers] = {};
  std::atomic<std::uint64_t> root{0};
  std::atomic<std::uint64_t> count[kEvents] = {};
  std::atomic<std::uint64_t> ticks[kEvents] = {};
  std::atomic<bool> client{false};
  // Span stack; owner thread only.
  int depth = 0;
  std::uint64_t child[kMaxDepth + 1] = {};
};

ThreadTrace& claim_thread_trace();

inline ThreadTrace& my_trace() {
  thread_local ThreadTrace* t = nullptr;
  if (t == nullptr) t = &claim_thread_trace();
  return *t;
}

// Single-writer increment: no locked RMW on the traced hot path.
inline void add(std::atomic<std::uint64_t>& c, std::uint64_t d) noexcept {
  c.store(c.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
}

}  // namespace detail

inline void trace_count(Event e, std::uint64_t n = 1) noexcept {
  detail::add(detail::my_trace().count[e], n);
}

// A span with no children, measured by the caller (guard enter/exit).
inline void trace_leaf(Event e, Layer l, std::uint64_t d,
                       std::uint64_t n) noexcept {
  detail::ThreadTrace& t = detail::my_trace();
  detail::add(t.self[l], d);
  if (t.depth > 0) {
    t.child[t.depth] += d;
  } else {
    detail::add(t.root, d);
  }
  detail::add(t.count[e], n);
  detail::add(t.ticks[e], d);
}

class Span {
 public:
  Span(Event e, Layer l) noexcept : t_(detail::my_trace()), e_(e), l_(l) {
    DCD_ASSERT(t_.depth < detail::kMaxDepth);
    t_.child[++t_.depth] = 0;
    t0_ = ticks();
  }
  ~Span() {
    const std::uint64_t d = ticks() - t0_;
    const std::uint64_t c = t_.child[t_.depth--];
    detail::add(t_.self[l_], d > c ? d - c : 0);
    if (t_.depth > 0) {
      t_.child[t_.depth] += d;
    } else {
      detail::add(t_.root, d);
    }
    detail::add(t_.count[e_], 1);
    detail::add(t_.ticks[e_], d);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  detail::ThreadTrace& t_;
  Event e_;
  Layer l_;
  std::uint64_t t0_ = 0;
};

// Task-body span, compiled away in the untraced instantiation.
template <bool kTraced>
struct TaskSpan {};
template <>
struct TaskSpan<true> {
  Span s{kEvTask, kLayerTask};
};

// --- dcas ---------------------------------------------------------------------

template <dcd::dcas::DcasPolicy Inner>
struct TracedDcas {
  static constexpr const char* kName = Inner::kName;
  static constexpr bool kLockFree = Inner::kLockFree;

  static std::uint64_t load(const dcd::dcas::Word& w) noexcept {
    Span s(kEvLoad, kLayerDcas);
    return Inner::load(w);
  }
  // Initial stores into private nodes: no sharing, left in the caller's
  // self time.
  static void store_init(dcd::dcas::Word& w, std::uint64_t v) noexcept {
    Inner::store_init(w, v);
  }
  static bool cas(dcd::dcas::Word& w, std::uint64_t o, std::uint64_t n) noexcept {
    Span s(kEvCas, kLayerDcas);
    return Inner::cas(w, o, n);
  }
  static bool dcas(dcd::dcas::Word& a, dcd::dcas::Word& b, std::uint64_t oa,
                   std::uint64_t ob, std::uint64_t na,
                   std::uint64_t nb) noexcept {
    Span s(kEvDcas, kLayerDcas);
    const bool ok = Inner::dcas(a, b, oa, ob, na, nb);
    if (ok) trace_count(kEvDcasOk);
    return ok;
  }
  static bool dcas_view(dcd::dcas::Word& a, dcd::dcas::Word& b,
                        std::uint64_t& oa, std::uint64_t& ob,
                        std::uint64_t na, std::uint64_t nb) noexcept {
    Span s(kEvDcas, kLayerDcas);
    const bool ok = Inner::dcas_view(a, b, oa, ob, na, nb);
    if (ok) trace_count(kEvDcasOk);
    return ok;
  }
};

// --- reclaim ------------------------------------------------------------------

// MagazinePool with timed allocate/deallocate. The live instance registers
// itself so the benchmark can read its MagazineStats at quiescent points
// (the deque owns the pool privately).
class TracedPool {
 public:
  TracedPool(std::size_t node_size, std::size_t capacity)
      : inner_(node_size, capacity) {
    current().store(this, std::memory_order_release);
  }
  ~TracedPool() {
    TracedPool* self = this;
    current().compare_exchange_strong(self, nullptr);
  }
  TracedPool(const TracedPool&) = delete;
  TracedPool& operator=(const TracedPool&) = delete;

  void* allocate() noexcept {
    Span s(kEvAlloc, kLayerReclaim);
    return inner_.allocate();
  }
  void deallocate(void* p) noexcept {
    Span s(kEvFree, kLayerReclaim);
    inner_.deallocate(p);
  }
  static void deallocate_cb(void* p, void* ctx) {
    static_cast<TracedPool*>(ctx)->deallocate(p);
  }
  bool owns(const void* p) const noexcept { return inner_.owns(p); }
  std::size_t capacity() const noexcept { return inner_.capacity(); }
  std::size_t node_size() const noexcept { return inner_.node_size(); }
  std::uint64_t live() const noexcept { return inner_.live(); }
  std::uint64_t allocation_failures() const noexcept {
    return inner_.allocation_failures();
  }
  dcd::reclaim::MagazineStats stats() const noexcept { return inner_.stats(); }

  static std::atomic<TracedPool*>& current() noexcept {
    static std::atomic<TracedPool*> p{nullptr};
    return p;
  }

 private:
  dcd::reclaim::MagazinePool inner_;
};

// EbrReclaim with a timed guard (enter and exit, not the operation it
// pins) and timed retire (which includes the EBR drains it triggers; the
// frees inside are child spans).
class TracedReclaim {
 public:
  static constexpr const char* kName = "traced-ebr";

  TracedReclaim() = default;
  TracedReclaim(const TracedReclaim&) = delete;
  TracedReclaim& operator=(const TracedReclaim&) = delete;

  class Guard {
   public:
    explicit Guard(TracedReclaim& r) {
      const std::uint64_t t0 = ticks();
      g_.emplace(r.inner_);
      trace_leaf(kEvGuard, kLayerReclaim, ticks() - t0, 1);
    }
    ~Guard() {
      const std::uint64_t t0 = ticks();
      g_.reset();
      trace_leaf(kEvGuard, kLayerReclaim, ticks() - t0, 0);
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    std::optional<dcd::reclaim::EbrReclaim::Guard> g_;
  };

  template <dcd::reclaim::PoolPolicy Pool>
  void retire(void* node, Pool& pool) {
    Span s(kEvRetire, kLayerReclaim);
    inner_.retire(node, pool);
  }
  void collect() { inner_.collect(); }

 private:
  dcd::reclaim::EbrReclaim inner_;
};

static_assert(dcd::reclaim::PoolPolicy<TracedPool>);
static_assert(dcd::reclaim::ReclaimPolicy<TracedReclaim>);

// --- deque --------------------------------------------------------------------

// Times every deque operation and attributes the AdaptiveBackoff pauses
// and yields the operation caused. Owner-end verbs count as push/pop,
// steal and inject keep their own events (see the DequeTraits mapping).
template <typename D>
class TracedDeque {
 public:
  using value_type = typename D::value_type;

  explicit TracedDeque(std::size_t capacity) : d_(capacity) {}
  TracedDeque(const TracedDeque&) = delete;
  TracedDeque& operator=(const TracedDeque&) = delete;

  dcd::deque::PushResult push_right(value_type v) {
    return timed(kEvPush, [&] { return d_.push_right(v); });
  }
  dcd::deque::PushResult push_left(value_type v) {
    return timed(kEvPush, [&] { return d_.push_left(v); });
  }
  std::optional<value_type> pop_right() {
    return timed_pop(kEvPop, kEvPopEmpty, [&] { return d_.pop_right(); });
  }
  std::optional<value_type> pop_left() {
    return timed_pop(kEvPop, kEvPopEmpty, [&] { return d_.pop_left(); });
  }

  template <typename F>
  auto timed(Event e, F&& f) {
    dcd::util::AdaptiveBackoff& b = dcd::util::AdaptiveBackoff::tl();
    const std::uint64_t p0 = b.pauses();
    const std::uint64_t y0 = b.yields();
    auto r = [&] {
      Span s(e, kLayerDeque);
      return f();
    }();
    trace_count(kEvBackoffPauses, b.pauses() - p0);
    trace_count(kEvBackoffYields, b.yields() - y0);
    return r;
  }
  template <typename F>
  auto timed_pop(Event e, Event empty, F&& f) {
    auto r = timed(e, static_cast<F&&>(f));
    if (!r) trace_count(empty);
    return r;
  }

  D& inner() noexcept { return d_; }

 private:
  D d_;
};

}  // namespace perfbench

namespace dcd::exec {

// The executor reaches the deque only through these four verbs, so this
// mapping is the deque layer's whole interface to it.
template <typename D>
struct DequeTraits<perfbench::TracedDeque<D>> {
  using TD = perfbench::TracedDeque<D>;
  using T = typename D::value_type;
  static constexpr bool kRemoteInject = DequeTraits<D>::kRemoteInject;

  static deque::PushResult push_own(TD& d, T v) {
    return d.timed(perfbench::kEvPush,
                   [&] { return DequeTraits<D>::push_own(d.inner(), v); });
  }
  static std::optional<T> pop_own(TD& d) {
    return d.timed_pop(perfbench::kEvPop, perfbench::kEvPopEmpty,
                       [&] { return DequeTraits<D>::pop_own(d.inner()); });
  }
  static std::optional<T> steal(TD& d) {
    return d.timed_pop(perfbench::kEvSteal, perfbench::kEvStealEmpty,
                       [&] { return DequeTraits<D>::steal(d.inner()); });
  }
  static deque::PushResult inject(TD& d, T v) {
    return d.timed(perfbench::kEvInject,
                   [&] { return DequeTraits<D>::inject(d.inner(), v); });
  }
};

}  // namespace dcd::exec

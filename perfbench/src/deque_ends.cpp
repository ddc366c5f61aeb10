// deque_ends: threads on opposite ends of one default ListDeque<uint64_t>
// (McasDcas, EbrReclaim, MagazinePool), the paper's non-interfering case
// (§1.2). The deque is prefilled thousands deep, so with one thread per end
// the ends never meet: dcas, deque and list-node reclaim do all the work.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "dcd/deque/list_deque.hpp"
#include "dcd/util/backoff.hpp"
#include "dcd/util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kPrefill = 4096;
constexpr std::size_t kMaxNodes = 1 << 16;
constexpr std::uint64_t kMaxBurst = 8;         // pushes, then as many pops
constexpr std::uint64_t kWarmupRounds = 2000;  // per thread, inside setup
constexpr std::uint64_t kColdEvery = 256;      // rounds between idle gaps
constexpr std::int64_t kGapNs = 100'000;
constexpr std::uint64_t kSampleMeanGap = 61;   // mean ops between samples

using PlainDeque = dcd::deque::ListDeque<std::uint64_t>;
using TracedListDeque = TracedDeque<
    dcd::deque::ListDeque<std::uint64_t, TracedDcas<dcd::dcas::McasDcas>,
                          TracedReclaim, TracedPool>>;

struct alignas(dcd::util::kCacheLineSize) ThreadResult {
  std::uint64_t pushed = 0;
  std::uint64_t ok_marks = 0;
  std::uint64_t bad_marks = 0;
  std::uint64_t ops = 0;     // measured window only
  std::uint64_t failed = 0;  // push full / pop empty, measured window only
  std::int64_t busy_ns = 0;
  std::vector<double> warm_us;
  std::vector<double> cold_us;
};

// One built deque with its load threads parked at the start line.
template <typename D>
class Instance {
 public:
  Instance(const Options& o, std::uint64_t seed)
      : cons_(o.threads + 1,
              static_cast<std::uint64_t>(o.seconds + 2) * 8'000'000 +
                  kPrefill,
              seed),
        results_(o.threads),
        seed_(seed) {
    deque_ = std::make_unique<D>(kMaxNodes);
    // Prefill stream = o.threads; alternate ends so both sides are deep.
    for (std::uint64_t i = 0; i < kPrefill; ++i) {
      const std::uint64_t v = cons_.encode(o.threads, i);
      const auto r = (i % 2 == 0) ? deque_->push_left(v) : deque_->push_right(v);
      if (r != dcd::deque::PushResult::kOkay) prefill_failed_ = true;
    }
    threads_.reserve(o.threads);
    for (std::size_t t = 0; t < o.threads; ++t) {
      threads_.emplace_back([this, t] { body(t); });
    }
    while (ready_.load(std::memory_order_acquire) != o.threads) {
      dcd::util::cpu_relax();
    }
  }

  ~Instance() { stop_and_join(); }
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  // Releases the threads, stops them after `seconds` and joins them.
  void run(double seconds) {
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    go_.store(true, std::memory_order_release);
    while (now_ns() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stop_and_join();
  }

  const std::vector<ThreadResult>& results() const { return results_; }

  // Drains what is left and checks that every pushed value was popped
  // exactly once. Call after run().
  void drain_and_check(Outcome& out) {
    if (prefill_failed_) out.fail("prefill push returned full");
    std::uint64_t ok = 0, bad = 0;
    while (auto v = deque_->pop_left()) {
      (cons_.mark(*v) == Conservation::Mark::kOk ? ok : bad) += 1;
    }
    std::vector<std::uint64_t> pushed;
    for (const ThreadResult& r : results_) {
      pushed.push_back(r.pushed);
      ok += r.ok_marks;
      bad += r.bad_marks;
    }
    pushed.push_back(kPrefill);
    if (bad != 0) {
      out.fail(std::to_string(bad) + " popped values were duplicates or "
               "never pushed");
    }
    const std::string err = cons_.verify(pushed, ok);
    if (!err.empty()) out.fail("deque_ends conservation: " + err);
  }

 private:
  void body(std::size_t t) {
    if (!pin_to_cpu(1 + t)) run_record().pinned = false;
    ThreadResult& r = results_[t];
    dcd::util::Xoshiro256 rng(seed_ * 0x9e3779b97f4a7c15ull + t + 1);
    const bool right = t % 2 == 1;
    std::uint64_t seq = 0;
    std::uint64_t until_sample = 1 + rng.below(2 * kSampleMeanGap);
    D& d = *deque_;

    // One operation; `timed` records its latency into `lat`.
    auto op = [&](bool push, bool measured, std::vector<double>* lat) {
      const std::int64_t t0 = lat != nullptr ? now_ns() : 0;
      bool ok = true;
      if (push) {
        const std::uint64_t v = cons_.encode(t, seq);
        const auto res = right ? d.push_right(v) : d.push_left(v);
        ok = res == dcd::deque::PushResult::kOkay;
        if (ok) ++seq;
      } else {
        const auto v = right ? d.pop_right() : d.pop_left();
        ok = v.has_value();
        if (ok) {
          (cons_.mark(*v) == Conservation::Mark::kOk ? r.ok_marks
                                                     : r.bad_marks) += 1;
        }
      }
      if (lat != nullptr) lat->push_back(static_cast<double>(now_ns() - t0) / 1e3);
      if (measured) {
        ++r.ops;
        r.failed += ok ? 0 : 1;
      }
    };
    auto round = [&](bool measured, bool cold) {
      const std::uint64_t burst = 1 + rng.below(kMaxBurst);
      for (std::uint64_t i = 0; i < 2 * burst; ++i) {
        std::vector<double>* lat = nullptr;
        if (measured) {
          if (cold && i == 0) {
            lat = &r.cold_us;
          } else if (--until_sample == 0) {
            lat = &r.warm_us;
            until_sample = 1 + rng.below(2 * kSampleMeanGap);
          }
        }
        op(i < burst, measured, lat);
      }
    };

    for (std::uint64_t i = 0; i < kWarmupRounds; ++i) round(false, false);
    ready_.fetch_add(1, std::memory_order_acq_rel);
    while (!go_.load(std::memory_order_acquire)) dcd::util::cpu_relax();

    const std::int64_t start = now_ns();
    std::int64_t gaps = 0;
    for (std::uint64_t i = 0; !stop_.load(std::memory_order_relaxed); ++i) {
      const bool cold = i % kColdEvery == kColdEvery - 1;
      if (cold) {
        const std::int64_t g0 = now_ns();
        spin_for_ns(kGapNs);
        gaps += now_ns() - g0;
      }
      round(true, cold);
      progress_bump(1 + t);
    }
    r.busy_ns = now_ns() - start - gaps;
    r.pushed = seq;
  }

  void stop_and_join() {
    stop_.store(true, std::memory_order_relaxed);
    go_.store(true, std::memory_order_release);
    for (auto& th : threads_) {
      if (th.joinable()) th.join();
    }
  }

  Conservation cons_;
  std::vector<ThreadResult> results_;
  std::uint64_t seed_;
  std::unique_ptr<D> deque_;
  bool prefill_failed_ = false;
  std::atomic<std::size_t> ready_{0};
  std::atomic<bool> go_{false};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

struct Window {
  double throughput = 0;  // ops/s while busy, summed over threads
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  double cpu_ns = 0;
  std::vector<double> warm_us, cold_us;
};

template <typename D>
Window collect(const Instance<D>& inst, double cpu_ns) {
  Window w;
  w.cpu_ns = cpu_ns;
  for (const ThreadResult& r : inst.results()) {
    w.ops += r.ops;
    w.failed += r.failed;
    if (r.busy_ns > 0) w.throughput += static_cast<double>(r.ops) * 1e9 / r.busy_ns;
    w.warm_us.insert(w.warm_us.end(), r.warm_us.begin(), r.warm_us.end());
    w.cold_us.insert(w.cold_us.end(), r.cold_us.begin(), r.cold_us.end());
  }
  return w;
}

// Builds, measures for `seconds` and checks one instance; `layers` (traced
// run) receives the window's per-layer inputs.
template <typename D>
Window measure_one(const Options& o, std::uint64_t seed, double seconds,
                   Outcome& out, double* setup_s, LayerInputs* layers) {
  const std::int64_t t0 = now_ns();
  Instance<D> inst(o, seed);
  *setup_s = (now_ns() - t0) / 1e9;
  // The threads are parked at the start line: counters are quiescent.
  const TraceTotals tr0 = trace_snapshot();
  dcd::reclaim::MagazineStats mag0{};
  if (TracedPool* p = TracedPool::current().load()) mag0 = p->stats();
  dcd::dcas::Telemetry::reset();
  const std::int64_t cpu0 = process_cpu_ns();
  inst.run(seconds);
  const double cpu = static_cast<double>(process_cpu_ns() - cpu0);
  Window w = collect(inst, cpu);
  if (layers != nullptr) {
    layers->d = trace_snapshot() - tr0;
    layers->dcas = dcd::dcas::Telemetry::snapshot();
    if (TracedPool* p = TracedPool::current().load()) {
      const auto m = p->stats();
      layers->mag.hits = m.hits - mag0.hits;
      layers->mag.misses = m.misses - mag0.misses;
      layers->mag.refills = m.refills - mag0.refills;
      layers->mag.flushes = m.flushes - mag0.flushes;
    }
    layers->units = static_cast<double>(w.ops);
    layers->sys_cpu_ns = cpu;
  }
  inst.drain_and_check(out);
  return w;
}

}  // namespace

Outcome run_deque_ends(const Options& o, const InstanceSpec& spec) {
  Outcome out;
  if (!pin_to_cpu(0)) run_record().pinned = false;
  double setup = 0;
  LayerInputs li;
  Window w =
      spec.traced
          ? measure_one<TracedListDeque>(o, spec.seed, spec.seconds, out,
                                         &setup, &li)
          : measure_one<PlainDeque>(o, spec.seed, spec.seconds, out, &setup,
                                    nullptr);
  out.attempted = w.ops;
  out.failed = w.failed;
  out.metrics["throughput_per_s"] = {w.throughput, "1/s"};
  out.metrics["cpu_us_per_unit"] = {w.cpu_ns / 1e3 / w.ops, "us"};
  out.metrics["warm_p50_us"] = {percentile(w.warm_us, 0.50), "us"};
  out.metrics["warm_p90_us"] = {percentile(w.warm_us, 0.90), "us"};
  out.metrics["cold_p50_us"] = {percentile(w.cold_us, 0.50), "us"};
  out.metrics["setup_s"] = {setup, "s"};
  std::fprintf(stderr,
               "  deque_ends: %zu warm and %zu cold latency samples; "
               "ungated: warm p99 %.3f us\n",
               w.warm_us.size(), w.cold_us.size(),
               percentile(w.warm_us, 0.99));
  if (spec.traced) add_layer_metrics(li, out.metrics);
  return out;
}

}  // namespace perfbench

// forkjoin and request: the fork/join executor (3 workers over
// ArrayDeque<Task*> on McasDcas) driven by one closed-loop client thread.
//
//   forkjoin  the client submits one fib(n) tree at a time and joins it;
//             owner-end push/pop and the continuation-counted join path
//             dominate, steals are rare.
//   request   the client submits one 31-node request tree at a time from
//             outside (a left-end inject, then steals); every kColdEvery-th
//             request follows an idle gap long enough for every worker to
//             park, so it also pays the park/wake path.
//
// The gated runs use ArrayDeque: Executor<ListDeque<Task*>> loses tasks
// (README, "Known fault"); --deque list reproduces that under the stall
// watchdog.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "checks.hpp"
#include "dcd/baseline/arora_deque.hpp"
#include "dcd/dcas/policies.hpp"
#include "dcd/deque/array_deque.hpp"
#include "dcd/deque/list_deque.hpp"
#include "dcd/exec/executor.hpp"
#include "dcd/util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using dcd::exec::Executor;
using dcd::exec::Latch;
using dcd::exec::Task;
using dcd::exec::TaskContext;

// fib(12..14) is 697 to 1828 tasks, 1.5 to 4 ms per tree: small enough
// that a host preemption lands in few trees, so the medians hold.
constexpr std::uint64_t kFibMin = 12;  // n is drawn from [kFibMin, kFibMax]
constexpr std::uint64_t kFibMax = 14;
constexpr std::uint64_t kWorkMin = 256;  // request: mixing rounds per node
constexpr std::uint64_t kWorkSpan = 256;
constexpr std::size_t kDistinctInputs = 1024;
constexpr std::uint64_t kColdEvery = 8;       // units between idle gaps
// In sizing runs every worker had parked before 99% of cold units with a
// 400 us gap (80-90% at 200 us). A longer gap adds only the host's deeper
// vCPU idle to the wake-up, which moved cold p50 by a quarter between runs.
constexpr std::int64_t kGapNs = 500'000;
constexpr std::uint64_t kWarmupUnits = 16;    // per setup

enum class Kind { kForkJoin, kRequest };

// --- task bodies ----------------------------------------------------------

// Per-worker padded task counters, indexed by TaskContext::worker_id(): the
// benchmark's own bookkeeping adds no shared cache line.
struct alignas(dcd::util::kCacheLineSize) WorkerSlot {
  std::atomic<std::uint64_t> tasks{0};
  std::atomic<bool> pin_tried{false};
};
constexpr std::size_t kMaxWorkers = 64;
WorkerSlot g_slots[kMaxWorkers];

// Stamps of the unit in flight (one at a time): root body start and the
// end of the body that completes the unit. Read by the client after join.
std::atomic<std::int64_t> g_root_start_ns{0};
std::atomic<std::int64_t> g_done_ns{0};

std::uint64_t slot_total() {
  std::uint64_t s = 0;
  for (const WorkerSlot& w : g_slots) s += w.tasks.load(std::memory_order_relaxed);
  return s;
}

void on_task(TaskContext& ctx) {
  WorkerSlot& w = g_slots[ctx.worker_id() % kMaxWorkers];
  if (!w.pin_tried.load(std::memory_order_relaxed)) {
    w.pin_tried.store(true, std::memory_order_relaxed);
    if (!pin_to_cpu(1 + ctx.worker_id())) run_record().pinned = false;
  }
  w.tasks.store(w.tasks.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
}

// The unit's root is the task whose continuation is the client's Latch
// (a body-less task); its last task is the join that resolves that Latch.
bool feeds_latch(const Task& t) {
  return t.continuation != nullptr && t.continuation->fn == nullptr;
}

template <bool kTr>
void fib_join(TaskContext& ctx, Task& t) {
  [[maybe_unused]] TaskSpan<kTr> span;
  on_task(ctx);
  *reinterpret_cast<std::uint64_t*>(t.args[0]) = t.args[1] + t.args[2];
  if (feeds_latch(t)) g_done_ns.store(now_ns(), std::memory_order_relaxed);
}

template <bool kTr>
void fib_node(TaskContext& ctx, Task& t) {
  [[maybe_unused]] TaskSpan<kTr> span;
  on_task(ctx);
  const bool root = feeds_latch(t);
  if (root) g_root_start_ns.store(now_ns(), std::memory_order_relaxed);
  const std::uint64_t n = t.args[0];
  auto* out = reinterpret_cast<std::uint64_t*>(t.args[1]);
  if (n < 2) {
    *out = n;
    if (root) g_done_ns.store(now_ns(), std::memory_order_relaxed);
    return;
  }
  Task* j = ctx.create(&fib_join<kTr>, t.continuation, 2, t.args[1]);
  t.continuation = nullptr;  // the subtree's completion rides on `j`
  ctx.fork(ctx.create(&fib_node<kTr>, j, 0, n - 1,
                      reinterpret_cast<std::uint64_t>(&j->args[1])));
  ctx.fork(ctx.create(&fib_node<kTr>, j, 0, n - 2,
                      reinterpret_cast<std::uint64_t>(&j->args[2])));
}

template <bool kTr>
void request_join(TaskContext& ctx, Task& t) {
  [[maybe_unused]] TaskSpan<kTr> span;
  on_task(ctx);
  *reinterpret_cast<std::uint64_t*>(t.args[0]) =
      request_combine(t.args[3], t.args[1], t.args[2]);
  if (feeds_latch(t)) g_done_ns.store(now_ns(), std::memory_order_relaxed);
}

template <bool kTr>
void request_node(TaskContext& ctx, Task& t) {
  [[maybe_unused]] TaskSpan<kTr> span;
  on_task(ctx);
  const bool root = feeds_latch(t);
  if (root) g_root_start_ns.store(now_ns(), std::memory_order_relaxed);
  const auto& in = *reinterpret_cast<const RequestInput*>(t.args[0]);
  const std::uint64_t idx = t.args[1];
  const std::uint64_t v = request_node_value(in.key, idx, in.work);
  if (idx >= kRequestFirstLeaf) {
    *reinterpret_cast<std::uint64_t*>(t.args[2]) = v;
    return;  // a leaf never feeds the Latch: the tree has 31 nodes
  }
  Task* j = ctx.create(&request_join<kTr>, t.continuation, 2, t.args[2]);
  j->args[3] = v;
  t.continuation = nullptr;
  ctx.fork(ctx.create(&request_node<kTr>, j, 0, t.args[0], 2 * idx,
                      reinterpret_cast<std::uint64_t>(&j->args[1])));
  ctx.fork(ctx.create(&request_node<kTr>, j, 0, t.args[0], 2 * idx + 1,
                      reinterpret_cast<std::uint64_t>(&j->args[2])));
}

// --- inputs -----------------------------------------------------------------

struct Inputs {
  std::vector<std::uint64_t> fib_n;
  std::vector<RequestInput> req;
  std::vector<std::uint64_t> req_expected;  // serial recursive evaluation
};

Inputs make_inputs(Kind kind, std::uint64_t seed) {
  Inputs in;
  dcd::util::Xoshiro256 rng(seed ^ 0x5eedf0e1a11ull);
  for (std::size_t i = 0; i < kDistinctInputs; ++i) {
    if (kind == Kind::kForkJoin) {
      in.fib_n.push_back(kFibMin + rng.below(kFibMax - kFibMin + 1));
    } else {
      RequestInput r{rng.next(), kWorkMin + rng.below(kWorkSpan)};
      in.req.push_back(r);
      in.req_expected.push_back(request_fold_serial(r));
    }
  }
  return in;
}

// --- the closed loop ----------------------------------------------------------

struct Samples {
  std::uint64_t units = 0;
  std::uint64_t tasks = 0;
  std::vector<double> rates;  // per unit: tasks (forkjoin) or 1 per second
  std::vector<double> warm_us, cold_us;            // submit -> last task done
  std::vector<double> dispatch_warm_us, dispatch_cold_us;  // -> root starts
  std::vector<double> join_wake_us;                // last task -> join returns
};

template <typename Ex>
void dump_exec_stats(const void* p) {
  const dcd::exec::ExecStats s = static_cast<const Ex*>(p)->stats();
  diag_write("exec.executed", s.executed);
  diag_write("exec.steals", s.steals);
  diag_write("exec.failed_steals", s.failed_steals);
  diag_write("exec.parks", s.parks);
  diag_write("exec.dry_sweeps", s.dry_sweeps);
  diag_write("exec.scan_pauses", s.scan_pauses);
  diag_write("exec.scan_yields", s.scan_yields);
  diag_write("exec.injected", s.injected);
}

template <typename D, bool kTr>
class Harness {
 public:
  using Ex = Executor<D>;

  Harness(const Options& o, Kind kind, const Inputs& in)
      : kind_(kind), in_(in) {
    dcd::exec::ExecConfig cfg;
    cfg.workers = o.workers;
    cfg.seed = o.seed;
    // Workers inherit CPUs 1..n-1 and pin themselves on their first task;
    // the client keeps CPU 0.
    if (!confine_to_cpus(1, online_cpus() - 1)) run_record().pinned = false;
    for (WorkerSlot& w : g_slots) w.pin_tried.store(false, std::memory_order_relaxed);
    ex_ = std::make_unique<Ex>(cfg);
    if (!pin_to_cpu(0)) run_record().pinned = false;
    watchdog_set_diag(&dump_exec_stats<Ex>, ex_.get());
  }
  ~Harness() {
    watchdog_set_diag(nullptr, nullptr);
    ex_.reset();
  }
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  Ex& ex() { return *ex_; }

  // Runs whole units until `seconds` have passed (or `units` are done).
  Samples loop(double seconds, std::uint64_t units, Outcome& out) {
    Samples s;
    const std::int64_t end =
        now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    for (std::uint64_t i = 0; units == 0 ? now_ns() < end : i < units; ++i) {
      // Warm-up (a unit budget) runs back to back, with no idle gaps.
      const bool cold = units == 0 && i % kColdEvery == kColdEvery - 1;
      if (cold) spin_for_ns(kGapNs);
      const std::size_t k = i % kDistinctInputs;
      Latch latch(1);
      std::uint64_t result = 0;
      const std::uint64_t tasks0 = slot_total();
      const std::uint64_t expect_tasks = kind_ == Kind::kForkJoin
                                             ? fib_tree_tasks(in_.fib_n[k])
                                             : kRequestTasks;
      const std::int64_t t0 = now_ns();
      Task* root =
          kind_ == Kind::kForkJoin
              ? ex_->create(&fib_node<kTr>, latch.task(), 0, in_.fib_n[k],
                            reinterpret_cast<std::uint64_t>(&result))
              : ex_->create(&request_node<kTr>, latch.task(), 0,
                            reinterpret_cast<std::uint64_t>(&in_.req[k]), 1,
                            reinterpret_cast<std::uint64_t>(&result));
      ex_->submit(root);
      ex_->join(latch);
      const std::int64_t t1 = now_ns();
      const std::int64_t done = g_done_ns.load(std::memory_order_relaxed);
      const std::int64_t started = g_root_start_ns.load(std::memory_order_relaxed);
      s.rates.push_back(
          static_cast<double>(kind_ == Kind::kForkJoin ? expect_tasks : 1) *
          1e9 / static_cast<double>(done - t0));
      (cold ? s.cold_us : s.warm_us).push_back((done - t0) / 1e3);
      (cold ? s.dispatch_cold_us : s.dispatch_warm_us)
          .push_back((started - t0) / 1e3);
      s.join_wake_us.push_back((t1 - done) / 1e3);

      const bool ok = kind_ == Kind::kForkJoin
                          ? fib_ok(in_.fib_n[k], result)
                          : request_ok(in_.req_expected[k], result);
      if (!ok) out.fail("unit " + std::to_string(i) + ": wrong result");
      if (slot_total() - tasks0 != expect_tasks) {
        out.fail("unit " + std::to_string(i) + ": " +
                 std::to_string(slot_total() - tasks0) + " task bodies ran, " +
                 std::to_string(expect_tasks) + " expected");
      }
      ++s.units;
      s.tasks += expect_tasks;
      progress_bump(0);
    }
    return s;
  }

 private:
  Kind kind_;
  const Inputs& in_;
  std::unique_ptr<Ex> ex_;
};

struct Window {
  Samples s;
  double sys_cpu_ns = 0;  // process CPU minus the client thread's
};

// Builds one executor (timed with its warm-up as setup), measures it for
// `seconds` and tears it down; `layers` (traced run) receives the window's
// per-layer inputs.
template <typename D, bool kTr>
Window measure_one(const Options& o, Kind kind, const Inputs& in,
                   double seconds, Outcome& out, double* setup_s,
                   LayerInputs* layers) {
  if (layers != nullptr) dcd::dcas::Telemetry::reset();
  const std::int64_t t0 = now_ns();
  auto h = std::make_unique<Harness<D, kTr>>(o, kind, in);
  h->loop(0, kWarmupUnits, out);
  *setup_s = (now_ns() - t0) / 1e9;

  const dcd::exec::ExecStats ex0 = h->ex().stats();
  const TraceTotals tr0 = trace_snapshot();
  const std::int64_t cpu0 = process_cpu_ns();
  const std::int64_t client0 = thread_cpu_ns();
  Window w;
  w.s = h->loop(seconds, 0, out);
  w.sys_cpu_ns = static_cast<double>((process_cpu_ns() - cpu0) -
                                     (thread_cpu_ns() - client0));
  if (layers != nullptr) {
    layers->d = trace_snapshot() - tr0;
    const dcd::exec::ExecStats ex1 = h->ex().stats();
    layers->ex.executed = ex1.executed - ex0.executed;
    layers->ex.steals = ex1.steals - ex0.steals;
    layers->ex.failed_steals = ex1.failed_steals - ex0.failed_steals;
    layers->ex.parks = ex1.parks - ex0.parks;
    layers->ex.dry_sweeps = ex1.dry_sweeps - ex0.dry_sweeps;
    layers->ex.scan_pauses = ex1.scan_pauses - ex0.scan_pauses;
    layers->ex.scan_yields = ex1.scan_yields - ex0.scan_yields;
    layers->ex.injected = ex1.injected - ex0.injected;
    h.reset();  // quiescent: every worker joined
    layers->dcas = dcd::dcas::Telemetry::snapshot();
    layers->units = static_cast<double>(
        kind == Kind::kForkJoin ? w.s.tasks : w.s.units);
    layers->tasks = static_cast<double>(w.s.tasks);
    layers->sys_cpu_ns = w.sys_cpu_ns;
    layers->dispatch_cold_us = median(w.s.dispatch_cold_us);
    layers->dispatch_warm_us = median(w.s.dispatch_warm_us);
    layers->join_wake_us = median(w.s.join_wake_us);
  }
  return w;
}

// One instance: end-to-end metrics, plus the per-layer ones over TD when
// the instance is traced.
template <typename D, typename TD = void>
Outcome run_kind(const Options& o, const InstanceSpec& spec, Kind kind) {
  Outcome out;
  trace_mark_client();
  const Inputs in = make_inputs(kind, o.seed);
  Options io = o;
  io.seed = spec.seed;
  double setup = 0;
  LayerInputs li;
  Window w;
  if (!spec.traced) {
    w = measure_one<D, false>(io, kind, in, spec.seconds, out, &setup, nullptr);
  } else if constexpr (std::is_void_v<TD>) {
    out.fail("--trace 1 is wired for the gated configuration only "
             "(--deque array --dcas mcas)");
    return out;
  } else {
    w = measure_one<TD, true>(io, kind, in, spec.seconds, out, &setup, &li);
  }
  out.attempted = w.s.units;
  // Throughput and CPU are per task for forkjoin, per request for request.
  const double units =
      static_cast<double>(kind == Kind::kForkJoin ? w.s.tasks : w.s.units);
  out.metrics["throughput_per_s"] = {median(w.s.rates), "1/s"};
  out.metrics["cpu_us_per_unit"] = {w.sys_cpu_ns / 1e3 / units, "us"};
  out.metrics["warm_p50_us"] = {percentile(w.s.warm_us, 0.50), "us"};
  out.metrics["warm_p90_us"] = {percentile(w.s.warm_us, 0.90), "us"};
  out.metrics["cold_p50_us"] = {percentile(w.s.cold_us, 0.50), "us"};
  out.metrics["setup_s"] = {setup, "s"};
  std::fprintf(stderr,
               "  %s: %zu warm, %zu cold units; ungated: cold p90 %.1f us, "
               "warm p99 %.1f us, cold p99 %.1f us\n",
               kind == Kind::kForkJoin ? "forkjoin" : "request",
               w.s.warm_us.size(), w.s.cold_us.size(),
               percentile(w.s.cold_us, 0.90), percentile(w.s.warm_us, 0.99),
               percentile(w.s.cold_us, 0.99));
  if (spec.traced) add_layer_metrics(li, out.metrics);
  return out;
}

using TaskArray = dcd::deque::ArrayDeque<Task*>;
using TracedTaskArray =
    TracedDeque<dcd::deque::ArrayDeque<Task*, TracedDcas<dcd::dcas::McasDcas>>>;

template <typename Dcas>
Outcome run_with_dcas(const Options& o, const InstanceSpec& spec, Kind kind) {
  if (o.deque == "array") {
    return run_kind<dcd::deque::ArrayDeque<Task*, Dcas>>(o, spec, kind);
  }
  return run_kind<dcd::deque::ListDeque<Task*, Dcas>>(o, spec, kind);
}

Outcome run_executor(const Options& o, const InstanceSpec& spec, Kind kind) {
  if (o.deque == "array" && o.dcas == "mcas") {
    return run_kind<TaskArray, TracedTaskArray>(o, spec, kind);
  }
  if (o.deque == "abp") {
    return run_kind<dcd::baseline::AroraDeque<Task*>>(o, spec, kind);
  }
  if (o.dcas == "mcas") {
    return run_with_dcas<dcd::dcas::McasDcas>(o, spec, kind);
  }
  if (o.dcas == "striped") {
    return run_with_dcas<dcd::dcas::StripedLockDcas>(o, spec, kind);
  }
  return run_with_dcas<dcd::dcas::GlobalLockDcas>(o, spec, kind);
}

}  // namespace

Outcome run_forkjoin(const Options& o, const InstanceSpec& spec) {
  return run_executor(o, spec, Kind::kForkJoin);
}
Outcome run_request(const Options& o, const InstanceSpec& spec) {
  return run_executor(o, spec, Kind::kRequest);
}

}  // namespace perfbench

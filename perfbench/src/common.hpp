// Shared plumbing for the perfbench workloads: options, results, clocks,
// exact percentiles, pinning, idle gaps and the stall watchdog.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Reference and fault-reproduction selectors; the gated runs use the
  // defaults (ArrayDeque, McasDcas, 3 workers, 2 deque threads).
  std::string deque = "array";  // executor workloads: array | list | abp
  std::string dcas = "mcas";    // executor workloads: mcas | striped | global
  std::size_t workers = 3;      // executor workloads
  std::size_t threads = 2;      // deque_ends: threads, alternating ends
};

struct Metric {
  double value;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;  // first failed check, empty when correct
  Metrics metrics;

  void fail(const std::string& why) {
    if (correct) error = why;
    correct = false;
  }
};

// --- clocks and resources ---------------------------------------------------
std::int64_t now_ns();          // steady_clock
std::int64_t process_cpu_ns();  // CPU time of every thread of the process
std::int64_t thread_cpu_ns();   // CPU time of the calling thread
double peak_rss_mib();  // this process's peak resident set

// Exact nearest-rank percentile of raw samples (q in (0, 1]); sorts `v`.
// NaN when `v` is empty.
double percentile(std::vector<double>& v, double q);
double median(std::vector<double> v);

// Busy-wait for `ns`: the idle gap before a cold unit. The load thread
// keeps its CPU (no sleep/wake latency of its own leaks into the unit that
// follows); the system under test sees no work for the whole gap.
void spin_for_ns(std::int64_t ns);

// --- pinning ----------------------------------------------------------------
std::size_t online_cpus();
// Pin the calling thread to one CPU (modulo the CPU count).
bool pin_to_cpu(std::size_t cpu);
// Restrict the calling thread to CPUs [first, first + count); threads it
// creates afterwards inherit the mask.
bool confine_to_cpus(std::size_t first, std::size_t count);

// --- progress and stall watchdog --------------------------------------------
//
// Load threads bump their own padded progress slot once per unit of work.
// The watchdog is a POSIX timer signalled to the main thread only (no
// thread of its own): when no slot moves for kStallSeconds, or the run
// outlives kMaxRunSeconds, it prints the counters and the registered
// diagnostic (an ExecStats snapshot for the executor workloads) to stderr
// and exits with code 3 — a lost task fails the run instead of hanging it.
inline constexpr std::size_t kProgressSlots = 8;
void progress_bump(std::size_t slot) noexcept;

using DiagFn = void (*)(const void* ctx);
void watchdog_arm(const char* workload);
void watchdog_set_diag(DiagFn fn, const void* ctx) noexcept;
void watchdog_disarm();
// Async-signal-safe "key=value\n" writer for diagnostics.
void diag_write(const char* key, std::uint64_t value) noexcept;

// --- output -----------------------------------------------------------------
std::string json_number(double v);
std::string compiler_id();

}  // namespace perfbench

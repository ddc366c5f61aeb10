#include "common.hpp"

#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "dcd/util/align.hpp"
#include "dcd/util/backoff.hpp"

namespace perfbench {

namespace {

std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

std::int64_t now_ns() { return clock_ns(CLOCK_MONOTONIC); }
std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[i];
}

double median(std::vector<double> v) { return percentile(v, 0.5); }

void spin_for_ns(std::int64_t ns) {
  const std::int64_t end = now_ns() + ns;
  while (now_ns() < end) dcd::util::cpu_relax();
}

// --- pinning ----------------------------------------------------------------

std::size_t online_cpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n < 1 ? 1 : static_cast<std::size_t>(n);
}

bool confine_to_cpus(std::size_t first, std::size_t count) {
  const std::size_t n = online_cpus();
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t i = 0; i < count; ++i) {
    CPU_SET(static_cast<int>((first + i) % n), &set);
  }
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

bool pin_to_cpu(std::size_t cpu) { return confine_to_cpus(cpu, 1); }

// --- progress and watchdog --------------------------------------------------

namespace {

constexpr int kStallSeconds = 5;
constexpr int kMaxRunSeconds = 170;
constexpr long kTickMs = 250;

dcd::util::CacheAligned<std::atomic<std::uint64_t>> g_progress[kProgressSlots];

std::atomic<DiagFn> g_diag_fn{nullptr};
std::atomic<const void*> g_diag_ctx{nullptr};
const char* g_workload = "";
timer_t g_timer{};
bool g_armed = false;
// Touched only by the signal handler, which always runs on the main thread.
std::uint64_t g_last_total = 0;
int g_still_ticks = 0;
int g_ticks = 0;

std::uint64_t progress_total() noexcept {
  std::uint64_t s = 0;
  for (auto& c : g_progress) s += c->load(std::memory_order_relaxed);
  return s;
}

void write_str(const char* s) noexcept {
  const ssize_t r = write(STDERR_FILENO, s, std::strlen(s));
  (void)r;
}

void on_tick(int) {
  ++g_ticks;
  const std::uint64_t total = progress_total();
  if (total != g_last_total) {
    g_last_total = total;
    g_still_ticks = 0;
  } else {
    ++g_still_ticks;
  }
  const bool stalled = g_still_ticks * kTickMs >= kStallSeconds * 1000;
  const bool overran = g_ticks * kTickMs >= kMaxRunSeconds * 1000;
  if (!stalled && !overran) return;
  write_str(stalled ? "perfbench: STALL: no unit of work completed in "
                      "the last 5 s\n"
                    : "perfbench: run exceeded its time limit\n");
  write_str("workload=");
  write_str(g_workload);
  write_str("\n");
  for (std::size_t i = 0; i < kProgressSlots; ++i) {
    const std::uint64_t v = g_progress[i]->load(std::memory_order_relaxed);
    if (v == 0) continue;
    char key[] = "progress.slot0";
    key[sizeof(key) - 2] = static_cast<char>('0' + i);
    diag_write(key, v);
  }
  if (DiagFn fn = g_diag_fn.load(std::memory_order_acquire)) {
    fn(g_diag_ctx.load(std::memory_order_acquire));
  }
  _exit(3);
}

}  // namespace

void progress_bump(std::size_t slot) noexcept {
  auto& c = *g_progress[slot % kProgressSlots];
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}


void diag_write(const char* key, std::uint64_t value) noexcept {
  char digits[24];
  int n = 0;
  do {
    digits[n++] = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  char line[96];
  std::size_t k = 0;
  for (const char* p = key; *p != '\0' && k < 64; ++p) line[k++] = *p;
  line[k++] = '=';
  while (n > 0) line[k++] = digits[--n];
  line[k++] = '\n';
  const ssize_t r = write(STDERR_FILENO, line, k);
  (void)r;
}

void watchdog_set_diag(DiagFn fn, const void* ctx) noexcept {
  g_diag_ctx.store(ctx, std::memory_order_release);
  g_diag_fn.store(fn, std::memory_order_release);
}

void watchdog_arm(const char* workload) {
  g_workload = workload;
  struct sigaction sa{};
  sa.sa_handler = &on_tick;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  sigaction(SIGALRM, &sa, nullptr);
  // Deliver to the main thread only: the handler then never races the
  // main thread's own teardown of what the diagnostic reads.
  sigevent sev{};
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGALRM;
  sev._sigev_un._tid = static_cast<pid_t>(syscall(SYS_gettid));
  if (timer_create(CLOCK_MONOTONIC, &sev, &g_timer) != 0) {
    std::perror("perfbench: timer_create");
    return;
  }
  itimerspec its{};
  its.it_interval.tv_nsec = kTickMs * 1000000;
  its.it_value.tv_nsec = kTickMs * 1000000;
  timer_settime(g_timer, 0, &its, nullptr);
  g_armed = true;
}

void watchdog_disarm() {
  if (!g_armed) return;
  timer_delete(g_timer);
  g_armed = false;
}

// --- output -----------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string compiler_id() {
#ifdef PERFBENCH_COMPILER
  return PERFBENCH_COMPILER;
#else
  return "unknown";
#endif
}

}  // namespace perfbench

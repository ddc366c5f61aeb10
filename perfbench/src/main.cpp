// perfbench: closed-loop benchmark of the DCAS deques and the fork/join
// executor. Usage (run.py builds the binary and forwards its arguments):
//
//   perfbench --workload deque_ends|forkjoin|request --seed N --seconds S
//             --trace 0|1 [--deque array|list|abp] [--dcas mcas|striped|global]
//             [--workers N] [--threads N]
//   perfbench --self-test
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1). Exit codes: 0 ok, 1 a check failed, 2 usage or
// refused build, 3 stall watchdog or time limit, 4 an instance crashed.
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "checks.hpp"
#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {

RunRecord& run_record() {
  static RunRecord r;
  return r;
}

namespace {

double ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

}  // namespace

void add_layer_metrics(const LayerInputs& in, Metrics& m) {
  const TraceTotals& d = in.d;
  auto put = [&](const char* name, double v, const char* unit) {
    m[name] = {std::isfinite(v) ? v : 0.0, unit};
  };
  const double dcas_calls = static_cast<double>(d.count[kEvDcas]);
  const double deque_ops = static_cast<double>(
      d.count[kEvPush] + d.count[kEvPop] + d.count[kEvSteal] +
      d.count[kEvInject]);

  put("dcas.calls_per_unit", ratio(dcas_calls, in.units), "count");
  put("dcas.ns_per_dcas", d.mean_ns(kEvDcas), "ns");
  put("dcas.ns_per_load", d.mean_ns(kEvLoad), "ns");
  put("dcas.success_ratio",
      ratio(static_cast<double>(d.count[kEvDcasOk]), dcas_calls), "ratio");
  put("dcas.descriptors_per_dcas",
      ratio(static_cast<double>(in.dcas.descriptors),
            static_cast<double>(in.dcas.dcas_calls)),
      "ratio");
  put("dcas.helps_per_dcas",
      ratio(static_cast<double>(in.dcas.helps),
            static_cast<double>(in.dcas.dcas_calls)),
      "ratio");
  put("dcas.self_share", ratio(d.self_ns(kLayerDcas), in.sys_cpu_ns), "ratio");

  put("deque.push_ns", d.mean_ns(kEvPush), "ns");
  put("deque.pop_ns", d.mean_ns(kEvPop), "ns");
  put("deque.steal_ns", d.mean_ns(kEvSteal), "ns");
  put("deque.inject_ns", d.mean_ns(kEvInject), "ns");
  put("deque.empty_pop_ratio",
      ratio(static_cast<double>(d.count[kEvPopEmpty]),
            static_cast<double>(d.count[kEvPop])),
      "ratio");
  put("deque.self_ns_per_op", ratio(d.self_ns(kLayerDeque), deque_ops), "ns");

  put("reclaim.alloc_ns", d.mean_ns(kEvAlloc), "ns");
  put("reclaim.free_ns", d.mean_ns(kEvFree), "ns");
  put("reclaim.guard_ns", d.mean_ns(kEvGuard), "ns");
  put("reclaim.retires_per_op",
      ratio(static_cast<double>(d.count[kEvRetire]), deque_ops), "count");
  put("reclaim.magazine_hit_ratio",
      ratio(static_cast<double>(in.mag.hits),
            static_cast<double>(in.mag.hits + in.mag.misses)),
      "ratio");
  put("reclaim.refills_per_kop",
      ratio(1000.0 * static_cast<double>(in.mag.refills), deque_ops), "count");

  const double steals = static_cast<double>(in.ex.steals);
  put("exec.steal_success_ratio",
      ratio(steals, steals + static_cast<double>(in.ex.failed_steals)),
      "ratio");
  put("exec.steals_per_ktask", ratio(1000.0 * steals, in.tasks), "count");
  put("exec.dry_sweeps_per_ktask",
      ratio(1000.0 * static_cast<double>(in.ex.dry_sweeps), in.tasks), "count");
  put("exec.parks_per_unit",
      ratio(static_cast<double>(in.ex.parks), in.units), "count");
  put("exec.task_body_share", ratio(d.self_ns(kLayerTask), in.sys_cpu_ns),
      "ratio");
  put("exec.overhead_ns_per_task",
      in.tasks == 0 ? 0.0 : (in.sys_cpu_ns - d.root_ns()) / in.tasks, "ns");
  put("exec.dispatch_cold_us", in.dispatch_cold_us, "us");
  put("exec.dispatch_warm_us", in.dispatch_warm_us, "us");
  put("exec.join_wake_us", in.join_wake_us, "us");

  put("util.backoff_pauses_per_unit",
      ratio(static_cast<double>(d.count[kEvBackoffPauses] + in.ex.scan_pauses),
            in.units),
      "count");
  put("util.backoff_yields_per_unit",
      ratio(static_cast<double>(d.count[kEvBackoffYields] + in.ex.scan_yields),
            in.units),
      "count");

  put("trace.unaccounted_share", 1.0 - ratio(d.root_ns(), in.sys_cpu_ns),
      "ratio");
}

}  // namespace perfbench

namespace {

using perfbench::InstanceSpec;
using perfbench::Options;
using perfbench::Outcome;
using RunFn = Outcome (*)(const Options&, const InstanceSpec&);

// An untraced run measures kInstances instances one after another, each
// in a forked child process for a ninth of --seconds, and reports the
// median over them of every end-to-end metric. Fresh processes keep one
// instance's state (EBR limbo that piled up while a pinned thread was
// preempted, a slow placement on the host) out of the others, and give
// each instance its own exact peak RSS. A traced run measures one
// untraced and one traced instance, each for half of --seconds.
constexpr int kInstances = 9;
constexpr double kRunLimitSeconds = 170;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "deque_ends|forkjoin|request --seed N --seconds S --trace 0|1 "
               "[--deque array|list|abp] [--dcas mcas|striped|global] "
               "[--workers N] [--threads N] | --self-test\n",
               why);
  std::exit(2);
}

std::uint64_t parse_uint(const char* s, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') usage((std::string("bad value for ") + flag).c_str());
  return v;
}

// A Debug or sanitizer build measures the instrumentation, not the code.
const char* refused_build() {
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
  return "not an optimized NDEBUG (Release) build";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  return "sanitizer build";
#else
  return nullptr;
#endif
#else
  return nullptr;
#endif
}

// --- one instance per child process ----------------------------------------

void write_all(int fd, const std::string& s) {
  std::size_t off = 0;
  while (off < s.size()) {
    const ssize_t n = write(fd, s.data() + off, s.size() - off);
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

std::string serialize(const Outcome& out, bool pinned) {
  std::string s;
  s += "correct " + std::to_string(out.correct ? 1 : 0) + "\n";
  s += "attempted " + std::to_string(out.attempted) + "\n";
  s += "failed " + std::to_string(out.failed) + "\n";
  s += "pinned " + std::to_string(pinned ? 1 : 0) + "\n";
  for (const auto& [name, m] : out.metrics) {
    char v[40];
    std::snprintf(v, sizeof(v), "%.17g", m.value);
    s += "metric " + name + " " + v + " " + m.unit + "\n";
  }
  if (!out.error.empty()) s += "error " + out.error + "\n";
  return s;
}

Outcome parse(const std::string& text, bool* pinned) {
  Outcome out;
  out.correct = false;
  std::istringstream in(text);
  std::string key;
  bool complete = false;
  while (in >> key) {
    if (key == "correct") {
      int c = 0;
      in >> c;
      out.correct = c == 1;
      complete = true;
    } else if (key == "attempted") {
      in >> out.attempted;
    } else if (key == "failed") {
      in >> out.failed;
    } else if (key == "pinned") {
      int p = 0;
      in >> p;
      *pinned = *pinned && p == 1;
    } else if (key == "metric") {
      std::string name, unit;
      double v = 0;
      in >> name >> v >> unit;
      out.metrics[name] = {v, unit};
    } else if (key == "error") {
      std::getline(in >> std::ws, out.error);
    }
  }
  if (!complete) out.error = "instance produced no result";
  return out;
}

// Runs one instance in a forked child (the parent never starts a thread,
// so forking is safe) and reads its outcome back through a pipe. A child
// that the watchdog stopped, that crashed, or that overruns `deadline_ns`
// ends the whole run with `*exit_code` set and no result.
Outcome run_in_child(const Options& o, const InstanceSpec& spec, RunFn run,
                     std::int64_t deadline_ns, bool* pinned, int* exit_code) {
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("perfbench: pipe");
    *exit_code = 2;
    return {};
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("perfbench: fork");
    *exit_code = 2;
    return {};
  }
  if (pid == 0) {
    close(fds[0]);
    perfbench::watchdog_arm(o.workload.c_str());
    Outcome out = run(o, spec);
    perfbench::watchdog_disarm();
    out.metrics["peak_rss_mib"] = {perfbench::peak_rss_mib(), "MiB"};
    write_all(fds[1], serialize(out, perfbench::run_record().pinned));
    close(fds[1]);
    std::fflush(nullptr);
    _exit(0);
  }
  close(fds[1]);
  std::string text;
  char buf[4096];
  bool overran = false;
  for (;;) {
    const std::int64_t left_ms = (deadline_ns - perfbench::now_ns()) / 1000000;
    if (left_ms <= 0) {
      overran = true;
      break;
    }
    pollfd p{fds[0], POLLIN, 0};
    const int r = poll(&p, 1, static_cast<int>(left_ms < 1000 ? left_ms : 1000));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) continue;
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n <= 0) break;  // EOF: the child is done
    text.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  if (overran) kill(pid, SIGKILL);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (overran) {
    std::fprintf(stderr, "perfbench: run exceeded %.0f s\n", kRunLimitSeconds);
    *exit_code = 3;
  } else if (WIFEXITED(status) && WEXITSTATUS(status) == 3) {
    *exit_code = 3;  // the child's watchdog already printed the diagnostic
  } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "perfbench: instance process died (status %d)\n",
                 status);
    *exit_code = 4;
  }
  return parse(text, pinned);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  bool self_test_only = false;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") {
      self_test_only = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = parse_uint(v, "--seed");
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = static_cast<double>(parse_uint(v, "--seconds"));
      have_seconds = true;
    } else if (a == "--trace") {
      const std::uint64_t t = parse_uint(v, "--trace");
      if (t > 1) usage("--trace takes 0 or 1");
      o.trace = t == 1;
      have_trace = true;
    } else if (a == "--deque") {
      o.deque = v;
    } else if (a == "--dcas") {
      o.dcas = v;
    } else if (a == "--workers") {
      o.workers = parse_uint(v, "--workers");
    } else if (a == "--threads") {
      o.threads = parse_uint(v, "--threads");
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }

  if (const char* why = refused_build()) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s\n", why);
    return 2;
  }
  const int unflagged = checker_self_test();
  if (self_test_only) return unflagged == 0 ? 0 : 1;
  if (unflagged != 0) return 1;

  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds and --trace are required");
  }
  if (o.seconds < 1 || o.seconds > 120) usage("--seconds must be in [1, 120]");
  if (o.deque != "array" && o.deque != "list" && o.deque != "abp") {
    usage("--deque must be array, list or abp");
  }
  if (o.dcas != "mcas" && o.dcas != "striped" && o.dcas != "global") {
    usage("--dcas must be mcas, striped or global");
  }
  if (o.workers < 1 || o.workers > 16) usage("--workers must be in [1, 16]");
  if (o.threads < 1 || o.threads > 6) usage("--threads must be in [1, 6]");

  RunFn run = nullptr;
  if (o.workload == "deque_ends") run = &run_deque_ends;
  if (o.workload == "forkjoin") run = &run_forkjoin;
  if (o.workload == "request") run = &run_request;
  if (run == nullptr) usage("--workload must be deque_ends, forkjoin or request");

  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(kRunLimitSeconds * 1e9);
  std::vector<Outcome> parts;
  bool pinned = true;
  const int n = o.trace ? 2 : kInstances;
  for (int k = 0; k < n; ++k) {
    InstanceSpec spec;
    spec.seed = o.seed * 1000003ull + static_cast<std::uint64_t>(k);
    spec.seconds = o.seconds / n;
    spec.traced = o.trace && k == 1;
    int code = 0;
    parts.push_back(run_in_child(o, spec, run, deadline, &pinned, &code));
    if (code != 0) return code;
    const Metrics& m = parts.back().metrics;
    std::fprintf(stderr,
                 "instance %d%s: throughput %.6g /s, warm p50 %.6g us, "
                 "setup %.4f s, peak rss %.2f MiB\n",
                 k, spec.traced ? " (traced)" : "",
                 m.count("throughput_per_s") ? m.at("throughput_per_s").value : 0.0,
                 m.count("warm_p50_us") ? m.at("warm_p50_us").value : 0.0,
                 m.count("setup_s") ? m.at("setup_s").value : 0.0,
                 m.count("peak_rss_mib") ? m.at("peak_rss_mib").value : 0.0);
  }

  Outcome out;
  for (const Outcome& p : parts) {
    if (!p.correct) out.fail(p.error);
    out.attempted += p.attempted;
    out.failed += p.failed;
  }
  if (!o.trace) {
    // End-to-end metrics: the median over the instances.
    for (const auto& [name, m] : parts[0].metrics) {
      if (name.find('.') != std::string::npos) continue;
      std::vector<double> v;
      for (const Outcome& p : parts) {
        v.push_back(p.metrics.count(name) ? p.metrics.at(name).value : NAN);
      }
      out.metrics[name] = {median(v), m.unit};
    }
  } else if (out.correct) {
    // Per-layer metrics from the traced instance, and the tracing cost on
    // the workload's headline: throughput, or warm p50 for request.
    for (const auto& [name, m] : parts[1].metrics) {
      if (name.find('.') != std::string::npos) out.metrics[name] = m;
    }
    const Metrics& plain = parts[0].metrics;
    const Metrics& traced = parts[1].metrics;
    const double ratio =
        o.workload == "request"
            ? traced.at("warm_p50_us").value / plain.at("warm_p50_us").value
            : plain.at("throughput_per_s").value /
                  traced.at("throughput_per_s").value;
    out.metrics["trace.overhead_ratio"] = {ratio, "ratio"};
  }

  for (const auto& [name, m] : out.metrics) {
    if (!std::isfinite(m.value)) out.fail("metric " + name + " has no value");
  }
  if (!out.correct) std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", out.error.c_str());

  std::printf(
      "{\"run_info\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %zu, \"pinned\": %s, \"compiler\": \"%s\", "
      "\"deque\": \"%s\", \"dcas\": \"%s\", \"workers\": %zu, "
      "\"threads\": %zu}}\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
      o.trace ? 1 : 0, online_cpus(), pinned ? "true" : "false",
      compiler_id().c_str(), o.deque.c_str(), o.dcas.c_str(), o.workers,
      o.threads);
  std::string line = "{\"correct\": ";
  line += out.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : out.metrics) {
    line += first ? "" : ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}

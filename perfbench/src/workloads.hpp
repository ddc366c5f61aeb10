// The three closed-loop workloads and the per-layer report they share.
#pragma once

#include <atomic>
#include <cstdint>

#include "common.hpp"
#include "dcd/dcas/telemetry.hpp"
#include "dcd/exec/executor.hpp"
#include "dcd/reclaim/magazine_pool.hpp"
#include "trace.hpp"

namespace perfbench {

// One instance: the deque or executor of a workload, built (the timed
// set-up), measured for `seconds` and checked, in a process of its own.
struct InstanceSpec {
  std::uint64_t seed = 0;
  double seconds = 0;
  bool traced = false;
};

// Each returns the instance's end-to-end metrics, plus the per-layer
// metrics when the instance is traced.
Outcome run_deque_ends(const Options& o, const InstanceSpec& spec);
Outcome run_forkjoin(const Options& o, const InstanceSpec& spec);
Outcome run_request(const Options& o, const InstanceSpec& spec);

// What the traced window measured; turned into the per-layer metrics.
struct LayerInputs {
  TraceTotals d;                   // span/counter deltas over the window
  double units = 0;                // ops (deque_ends), tasks, requests
  double tasks = 0;                // executor tasks in the window
  double sys_cpu_ns = 0;           // CPU of the system's threads in the window
  dcd::dcas::Counters dcas;        // Telemetry over the traced phase
  dcd::reclaim::MagazineStats mag;  // window delta (deque_ends)
  dcd::exec::ExecStats ex;         // window delta (executor workloads)
  double dispatch_cold_us = 0;
  double dispatch_warm_us = 0;
  double join_wake_us = 0;
};
void add_layer_metrics(const LayerInputs& in, Metrics& m);

// Whole-run hygiene record printed before the result line.
struct RunRecord {
  std::atomic<bool> pinned{true};  // every pin/confine call succeeded
};
RunRecord& run_record();

}  // namespace perfbench

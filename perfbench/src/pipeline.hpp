// The benchmark's rebuild of the DEISA2/3 path of harness::run_scenario
// from public APIs, so that the benchmark can time the world build, the
// run phase and each layer call from outside the program.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "deisa/harness/scenario.hpp"
#include "ledger.hpp"

namespace perfbench {

namespace harness = deisa::harness;

struct Workload {
  std::string name;
  harness::Pipeline pipeline = harness::Pipeline::kDeisa3;
  /// Geometry and knobs; alloc_seed is set per run.
  harness::ScenarioParams params;
  /// Distinct allocation seeds per invocation: the modeled metrics are the
  /// medians over the runs of these seeds, so they are exact for a given
  /// --seed however many runs fit in the measuring time.
  int model_seeds = 1;
  /// Scale the real-clock end-to-end times by the host-speed probe taken
  /// before each run. Off where the probe does not track the workload's
  /// slowdowns (the linalg-bound insitu-ipca).
  bool scale_by_probe = true;
  std::string why;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// Serial reference fit of a real-data workload, computed from the first
/// run's pushed slabs and shared by the later runs of the invocation.
struct Reference {
  std::vector<double> singular_values;
  double fit_s = 0.0;
};

struct RunOptions {
  /// Install a metrics registry for the run (the harness always does).
  bool registry = true;
  /// Traced run: the real-clock ledger, its spans and task wrapping.
  bool traced = false;
  /// Real-data workloads: filled by the first run, checked by every run.
  Reference* reference = nullptr;
};

/// Everything one pipeline run produced, on both clocks.
struct PipelineRun {
  // ---- real clock (seconds) ----
  double setup_s = 0.0;  // world build + start, up to the first event
  double run_s = 0.0;    // first event to drained engine
  double check_s = 0.0;  // result collection checks
  double cpu_s = 0.0;    // process CPU over setup + run
  double calibration_s = 0.0;  // host-speed probe before the run (median)
  double peak_rss_mib = 0.0;  // peak RSS over setup + run

  // ---- model clock (seconds) ----
  double model_makespan_s = 0.0;
  double model_analytics_s = 0.0;
  std::vector<std::vector<double>> sim_compute;  // [rank][step]
  std::vector<std::vector<double>> sim_io;       // [rank][step]

  // ---- counters ----
  std::uint64_t sched_msgs = 0;
  std::map<std::string, std::uint64_t> sched_msgs_by_kind;
  std::vector<std::uint64_t> shard_msgs;
  std::uint64_t remote_edges = 0;
  std::uint64_t notify_msgs = 0;
  std::uint64_t release_acks = 0;
  std::uint64_t keys_released = 0;
  double sched_busy_s = 0.0;
  double sched_wait_s = 0.0;
  std::vector<std::uint64_t> worker_tasks;
  double worker_busy_s = 0.0;
  std::uint64_t worker_peak_bytes = 0;
  std::uint64_t depot_peak_bytes = 0;
  std::uint64_t net_msgs = 0;
  std::uint64_t net_bytes = 0;
  std::uint64_t bytes_moved = 0;
  std::uint64_t bytes_referenced = 0;
  std::uint64_t blocks_sent = 0;
  std::uint64_t blocks_filtered = 0;
  std::uint64_t blocks_repushed = 0;
  std::uint64_t blocks_produced = 0;  // ranks x steps x arrays
  std::uint64_t sim_events = 0;

  // ---- functional outputs (real_data) ----
  std::vector<double> singular_values;
  std::vector<double> explained_variance;
  double reference_fit_s = 0.0;  // nonzero on the run that fitted it
  double sv_rel_err = 0.0;

  // ---- traced run only ----
  std::array<double, kLayerCount> self_s{};
  std::array<std::uint64_t, kLayerCount> calls{};
  std::uint64_t ledger_mismatches = 0;

  /// Output checks that failed (empty = correct).
  std::vector<std::string> failures;

  double wall_s() const { return setup_s + run_s + check_s; }
};

/// Build the world, run the pipeline to a checked result and collect the
/// counters. Throws only on errors outside the run (a failing run is
/// reported through `failures`).
PipelineRun run_pipeline(const Workload& w, std::uint64_t alloc_seed,
                         const RunOptions& opts);

/// Build and start the world, then tear it down before the run phase:
/// one set-up sample.
double setup_only(const Workload& w, std::uint64_t alloc_seed);

}  // namespace perfbench

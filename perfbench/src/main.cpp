// deisa_perfbench — the repository benchmark.
//
//   deisa_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--commit ID]
//   deisa_perfbench --list
//
// --trace 0 measures the end-to-end metrics with tracing off: untraced
// runs for S seconds (at least one per model seed), each followed by
// set-up-only samples.
// --trace 1 measures the per-layer metrics: untraced runs with and
// without the metrics registry, a self-check against
// harness::run_scenario, then one traced run. Both print one line
// per metric, a provenance line and, last, one JSON result line.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <queue>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>

#include "pipeline.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string commit = "unknown";
  bool list = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "error: " << why
            << "\nusage: deisa_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--commit ID] | --list\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list") {
      a.list = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") a.workload = v;
      else if (flag == "--seed") a.seed = std::stoull(v);
      else if (flag == "--seconds") a.seconds = std::stod(v);
      else if (flag == "--trace") a.trace = std::stoi(v);
      else if (flag == "--commit") a.commit = v;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (!a.list && (a.trace < 0 || a.trace > 1)) usage("--trace takes 0 or 1");
  if (!a.list && !(a.seconds > 0.0 && a.seconds <= 3600.0))
    usage("--seconds must be in (0, 3600]");
  return a;
}

/// Allocation seed of model-seed slot `i` for workload seed `seed`
/// (splitmix64 finalizer: nearby seeds give unrelated placements).
std::uint64_t alloc_seed(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + (i + 1) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return (z ^ (z >> 31)) % 1000000007ULL + 1;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

template <typename F>
double median_of(const std::vector<PipelineRun>& runs, F f) {
  std::vector<double> v;
  for (const PipelineRun& r : runs) v.push_back(f(r));
  return median(std::move(v));
}

std::vector<double> flatten(const std::vector<std::vector<double>>& m) {
  std::vector<double> out;
  for (const auto& row : m) out.insert(out.end(), row.begin(), row.end());
  return out;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string clock;  // real | model | count
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// Attempt accounting of one invocation.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> why;

  void add(const std::string& what, const std::vector<std::string>& failures) {
    ++attempted;
    if (failures.empty()) return;
    ++failed;
    for (const std::string& f : failures) why.push_back(what + ": " + f);
  }
};

/// Host-speed probe: a fixed mix of heap, hash-map and priority-queue work
/// like the simulator's, owned by the benchmark so that no change to the
/// program moves it.
double heap_probe_s() {
  const Clock::time_point t0 = Clock::now();
  std::priority_queue<std::pair<double, std::uint64_t>,
                      std::vector<std::pair<double, std::uint64_t>>, std::greater<>>
      queue;
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  std::vector<std::unique_ptr<std::array<char, 48>>> objects;
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> when(0.0, 1.0);
  std::uint64_t acc = 0;
  for (std::uint64_t i = 0; i < 100000; ++i) {
    queue.emplace(when(rng), i);
    table[rng() % 60000] += i;
    objects.push_back(std::make_unique<std::array<char, 48>>());
    if (queue.size() > 20000) {
      acc += queue.top().second;
      queue.pop();
    }
  }
  for (; !queue.empty(); queue.pop()) acc += queue.top().second;
  volatile std::uint64_t sink = acc + table.size();
  (void)sink;
  return seconds_since(t0);
}

/// Probe time of a host of reference speed (seconds).
constexpr double kReferenceProbeS = 0.05;

/// Probe samples taken before every run; the run's host speed is
/// kReferenceProbeS / their median. The host's speed changes within a
/// second, so one sample alone would add more noise than it removes.
constexpr int kProbesPerRun = 4;

/// Host-speed factor of one run: its real times are multiplied by it, which
/// cancels a host slowdown that hits the run and the probe alike.
double speed(const Workload& w, const PipelineRun& r) {
  return w.scale_by_probe ? kReferenceProbeS / r.calibration_s : 1.0;
}

/// Set-up samples taken after every run, each scaled by that run's host
/// speed: set-up takes milliseconds, so many samples spread over the whole
/// invocation are cheap and their median is steady.
constexpr int kSetupSamplesPerRun = 4;

/// Untraced runs until `a.seconds` are spent: at least one per model seed,
/// or, when `alternate_registry` is set, at least one pair of runs on the
/// same seed, the first with the metrics registry and the second (stored
/// in `without_registry`) without it. Returns the runs with the registry.
/// When `setups` is given, set-up samples go there.
std::vector<PipelineRun> timed_runs(const Workload& w, const Args& a,
                                    bool alternate_registry, Reference& ref,
                                    Tally& tally,
                                    std::vector<PipelineRun>* without_registry,
                                    std::vector<double>* setups) {
  const std::size_t min_runs =
      alternate_registry ? 2 : static_cast<std::size_t>(std::max(1, w.model_seeds));
  std::vector<PipelineRun> with_registry;
  const Clock::time_point t0 = Clock::now();
  std::vector<double> costs;
  for (std::uint64_t i = 0; i < 500; ++i) {
    const double spent = seconds_since(t0);
    if (i >= min_runs &&
        spent + (costs.empty() ? 0.0 : median(costs)) > a.seconds)
      break;
    RunOptions opts;
    opts.registry = !alternate_registry || i % 2 == 0;
    opts.reference = &ref;
    const std::uint64_t slot = alternate_registry ? i / 2 : i;
    const Clock::time_point r0 = Clock::now();
    std::vector<double> probes;
    for (int k = 0; k < kProbesPerRun; ++k) probes.push_back(heap_probe_s());
    PipelineRun run = run_pipeline(w, alloc_seed(a.seed, slot), opts);
    run.calibration_s = median(std::move(probes));
    if (setups != nullptr)
      for (int k = 0; k < kSetupSamplesPerRun; ++k)
        setups->push_back(setup_only(w, alloc_seed(a.seed, slot)) * speed(w, run));
    costs.push_back(seconds_since(r0));
    tally.add("run " + std::to_string(i), run.failures);
    (opts.registry ? with_registry : *without_registry).push_back(std::move(run));
  }
  return with_registry;
}

/// Modeled outputs that must agree exactly between two runs of one seed.
std::vector<std::string> model_diff(const PipelineRun& a,
                                    const harness::RunResult& b) {
  std::vector<std::string> d;
  if (a.sched_msgs != b.scheduler_messages) d.push_back("scheduler message total");
  if (a.sched_msgs_by_kind != b.scheduler_messages_by_kind)
    d.push_back("scheduler messages by kind");
  if (a.blocks_sent != b.bridge_blocks_sent) d.push_back("blocks sent");
  if (a.blocks_filtered != b.bridge_blocks_filtered) d.push_back("blocks filtered");
  if (a.model_makespan_s != b.total_seconds) d.push_back("modeled makespan");
  if (a.model_analytics_s != b.analytics_seconds) d.push_back("modeled analytics time");
  if (a.sim_io != b.sim_io) d.push_back("modeled per-rank push times");
  if (a.sim_compute != b.sim_compute) d.push_back("modeled per-rank compute times");
  if (a.singular_values != b.singular_values) d.push_back("singular values");
  if (a.explained_variance != b.explained_variance)
    d.push_back("explained variance");
  if (a.net_bytes != b.network_bytes) d.push_back("network bytes");
  if (a.keys_released != b.keys_released) d.push_back("keys released");
  return d;
}

std::vector<std::string> model_diff(const PipelineRun& a, const PipelineRun& b) {
  std::vector<std::string> d;
  if (a.sched_msgs_by_kind != b.sched_msgs_by_kind) d.push_back("scheduler messages by kind");
  if (a.shard_msgs != b.shard_msgs) d.push_back("per-shard messages");
  if (a.blocks_sent != b.blocks_sent || a.blocks_filtered != b.blocks_filtered)
    d.push_back("blocks sent/filtered");
  if (a.model_makespan_s != b.model_makespan_s) d.push_back("modeled makespan");
  if (a.model_analytics_s != b.model_analytics_s) d.push_back("modeled analytics time");
  if (a.sim_io != b.sim_io) d.push_back("modeled per-rank push times");
  if (a.singular_values != b.singular_values) d.push_back("singular values");
  if (a.sim_events != b.sim_events) d.push_back("engine events");
  return d;
}

std::vector<Metric> end_to_end(const Workload& w, const Args& a, Tally& tally) {
  Reference ref;
  std::vector<double> setups;
  const std::vector<PipelineRun> runs =
      timed_runs(w, a, false, ref, tally, nullptr, &setups);

  // Modeled metrics come from the runs of the first `model_seeds` seeds,
  // so they are exact for a given --seed.
  const std::vector<PipelineRun> model_runs(
      runs.begin(), runs.begin() + std::min<long>(static_cast<long>(runs.size()),
                                                  w.model_seeds));

  std::vector<Metric> m;
  m.push_back({"setup_s", median(setups), "s", "real"});
  m.push_back({"wall_s", median_of(runs, [&](const PipelineRun& r) {
                 return r.wall_s() * speed(w, r);
               }), "s", "real"});
  m.push_back({"blocks_per_s", median_of(runs, [&](const PipelineRun& r) {
                 return ratio(static_cast<double>(r.blocks_produced), r.run_s * speed(w, r));
               }), "1/s", "real"});
  m.push_back({"cpu_s", median_of(runs, [&](const PipelineRun& r) {
                 return r.cpu_s * speed(w, r);
               }), "s", "real"});
  m.push_back({"peak_rss_mib", median_of(runs, [](const PipelineRun& r) { return r.peak_rss_mib; }), "MiB", "real"});
  m.push_back({"model_makespan_s", median_of(model_runs, [](const PipelineRun& r) {
                 return r.model_makespan_s;
               }), "s", "model"});
  m.push_back({"model_analytics_s", median_of(model_runs, [](const PipelineRun& r) {
                 return r.model_analytics_s;
               }), "s", "model"});
  m.push_back({"model_push_p50_s", median_of(model_runs, [](const PipelineRun& r) {
                 return percentile(flatten(r.sim_io), 0.50);
               }), "s", "model"});
  m.push_back({"model_push_p99_s", median_of(model_runs, [](const PipelineRun& r) {
                 return percentile(flatten(r.sim_io), 0.99);
               }), "s", "model"});
  std::cout << "runs " << runs.size() << " (model runs " << model_runs.size()
            << ", set-up samples " << setups.size() << "); unscaled medians: wall_s "
            << median_of(runs, [](const PipelineRun& r) { return r.wall_s(); })
            << ", calibration_s "
            << median_of(runs, [](const PipelineRun& r) { return r.calibration_s; })
            << (w.scale_by_probe ? "" : " (not scaled)") << "\n";
  return m;
}

std::vector<Metric> per_layer(const Workload& w, const Args& a, Tally& tally) {
  Reference ref;
  std::vector<PipelineRun> bare;
  const std::vector<PipelineRun> runs =
      timed_runs(w, a, true, ref, tally, &bare, nullptr);

  // Self-check: the harness must give the same modeled outputs for the
  // seed of run 0.
  {
    harness::ScenarioParams p = w.params;
    p.alloc_seed = alloc_seed(a.seed, 0);
    std::vector<std::string> diff;
    try {
      diff = model_diff(runs.front(), harness::run_scenario(w.pipeline, p));
    } catch (const std::exception& e) {
      diff.push_back(std::string("harness run threw: ") + e.what());
    }
    tally.add("self-check vs harness::run_scenario", diff);
  }

  RunOptions traced_opts;
  traced_opts.traced = true;
  traced_opts.reference = &ref;
  const PipelineRun tr = run_pipeline(w, alloc_seed(a.seed, 0), traced_opts);
  // The traced run must not move the model: same outputs as run 0.
  std::vector<std::string> failures = tr.failures;
  for (const std::string& d : model_diff(tr, runs.front()))
    failures.push_back("traced run differs from untraced run: " + d);
  if (tr.ledger_mismatches != 0) failures.push_back("unbalanced trace spans");
  tally.add("traced run", failures);

  auto L = [](Layer l) { return static_cast<std::size_t>(l); };
  auto self = [&](Layer l) { return tr.self_s[L(l)]; };
  std::vector<Metric> m;
  auto add = [&m](std::string name, double v, std::string unit, std::string clock) {
    m.push_back({std::move(name), v, std::move(unit), std::move(clock)});
  };

  // Kernels.
  for (Layer l : {Layer::kHeat2dStep, Layer::kSlabAssemble, Layer::kPartialFit,
                  Layer::kExtract}) {
    add(std::string(layer_name(l)) + ".calls", static_cast<double>(tr.calls[L(l)]), "count", "count");
    add(std::string(layer_name(l)) + ".self_s", self(l), "s", "real");
  }
  add("ml.reference_fit_s", ref.fit_s, "s", "real");

  // Runtime self time.
  const double msgs = static_cast<double>(tr.sched_msgs);
  add("dts.scheduler.self_s", self(Layer::kScheduler), "s", "real");
  add("dts.scheduler.self_us_per_msg", 1e6 * ratio(self(Layer::kScheduler), msgs), "us", "real");
  add("dts.worker.self_s", self(Layer::kWorker), "s", "real");
  for (Layer l : {Layer::kSendBlocks, Layer::kContract, Layer::kBuildGraph,
                  Layer::kSubmit, Layer::kBarrier, Layer::kUnattributed,
                  Layer::kRank, Layer::kClient})
    add(std::string(layer_name(l)) + ".self_s", self(l), "s", "real");
  add("sim.events", static_cast<double>(tr.sim_events), "count", "count");
  double attributed = 0.0;
  for (double s : tr.self_s) attributed += s;
  const double gap = std::abs(attributed - tr.run_s) / tr.run_s;
  add("bench.attribution_gap_frac", gap, "ratio", "real");

  // Modeled scheduler.
  add("dts.scheduler.msgs", msgs, "count", "count");
  for (const char* kind : {"update_graph", "task_finished", "update_data",
                           "create_external", "wait_key", "heartbeat_worker",
                           "heartbeat_bridge"}) {
    const auto it = tr.sched_msgs_by_kind.find(kind);
    add(std::string("dts.scheduler.msgs.") + kind,
        it == tr.sched_msgs_by_kind.end() ? 0.0 : static_cast<double>(it->second),
        "count", "count");
  }
  add("dts.scheduler.model_busy_s", tr.sched_busy_s, "s", "model");
  add("dts.scheduler.model_wait_s", tr.sched_wait_s, "s", "model");

  // Shard protocol.
  double shard_max = 0.0, shard_sum = 0.0;
  for (std::uint64_t s : tr.shard_msgs) {
    shard_max = std::max(shard_max, static_cast<double>(s));
    shard_sum += static_cast<double>(s);
  }
  const double shards = static_cast<double>(tr.shard_msgs.size());
  add("dts.shard.remote_edges", static_cast<double>(tr.remote_edges), "count", "count");
  add("dts.shard.notify_msgs", static_cast<double>(tr.notify_msgs), "count", "count");
  add("dts.shard.release_acks", static_cast<double>(tr.release_acks), "count", "count");
  add("dts.shard.notify_per_remote_edge",
      ratio(static_cast<double>(tr.notify_msgs), static_cast<double>(tr.remote_edges)),
      "ratio", "count");
  add("dts.shard.msgs_max_over_mean", ratio(shard_max, shard_sum / std::max(1.0, shards)),
      "ratio", "count");

  // Lifetime and data plane.
  double tasks_max = 0.0, tasks_sum = 0.0;
  for (std::uint64_t t : tr.worker_tasks) {
    tasks_max = std::max(tasks_max, static_cast<double>(t));
    tasks_sum += static_cast<double>(t);
  }
  const double workers = static_cast<double>(std::max<std::size_t>(1, tr.worker_tasks.size()));
  constexpr double kMiB = 1024.0 * 1024.0;
  add("dts.scheduler.keys_released", static_cast<double>(tr.keys_released), "count", "count");
  add("dts.worker.tasks", tasks_sum, "count", "count");
  add("dts.worker.model_busy_s", tr.worker_busy_s, "s", "model");
  add("dts.worker.peak_mib", static_cast<double>(tr.worker_peak_bytes) / kMiB, "MiB", "model");
  add("dts.worker.tasks_max_over_mean", ratio(tasks_max, tasks_sum / workers), "ratio", "count");
  add("dts.depot.peak_mib", static_cast<double>(tr.depot_peak_bytes) / kMiB, "MiB", "model");
  add("net.msgs", static_cast<double>(tr.net_msgs), "count", "count");
  add("net.bytes", static_cast<double>(tr.net_bytes), "bytes", "count");
  add("net.bytes_moved", static_cast<double>(tr.bytes_moved), "bytes", "count");
  add("net.bytes_referenced", static_cast<double>(tr.bytes_referenced), "bytes", "count");
  add("net.moved_ratio",
      ratio(static_cast<double>(tr.bytes_moved),
            static_cast<double>(tr.bytes_moved + tr.bytes_referenced)),
      "ratio", "count");
  add("core.blocks_sent", static_cast<double>(tr.blocks_sent), "count", "count");
  add("core.blocks_filtered", static_cast<double>(tr.blocks_filtered), "count", "count");
  add("core.blocks_repushed", static_cast<double>(tr.blocks_repushed), "count", "count");
  add("core.sent_ratio",
      ratio(static_cast<double>(tr.blocks_sent),
            static_cast<double>(tr.blocks_sent + tr.blocks_filtered)),
      "ratio", "count");

  // Observability and the benchmark's own cost.
  const double with_reg = median_of(runs, [](const PipelineRun& r) { return r.run_s; });
  const double without_reg = bare.empty() ? with_reg
      : median_of(bare, [](const PipelineRun& r) { return r.run_s; });
  add("obs.registry_s", with_reg - without_reg, "s", "real");
  add("bench.trace_overhead_s", tr.run_s - with_reg, "s", "real");
  add("bench.calibration_s",
      median_of(runs, [](const PipelineRun& r) { return r.calibration_s; }), "s",
      "real");

  // Correctness.
  double sv_err = tr.sv_rel_err;
  for (const PipelineRun& r : runs) sv_err = std::max(sv_err, r.sv_rel_err);
  add("sv_rel_err", sv_err, "ratio", "real");
  add("failed_frac", ratio(static_cast<double>(tally.failed),
                           static_cast<double>(tally.attempted)),
      "ratio", "count");

  // Where the traced run's time went.
  std::size_t top = 0;
  for (std::size_t i = 1; i < kLayerCount; ++i)
    if (tr.self_s[i] > tr.self_s[top]) top = i;
  std::cout << "traced run: " << tr.run_s << " s run phase, layer self "
            << "times sum to " << attributed << " s (gap " << 100.0 * gap
            << "%), largest layer " << layer_name(static_cast<Layer>(top))
            << " (" << 100.0 * ratio(tr.self_s[top], tr.run_s) << "%)\n";
  return m;
}

std::string hostname() {
  char buf[256] = {};
  if (gethostname(buf, sizeof buf - 1) != 0) return "unknown";
  return buf;
}

int run(const Args& a) {
  if (a.list) {
    for (const Workload& w : workloads()) std::cout << w.name << "\t" << w.why << "\n";
    return 0;
  }
  const Workload* w = find_workload(a.workload);
  if (w == nullptr) usage("unknown workload '" + a.workload + "' (see --list)");

  Tally tally;
  std::vector<Metric> metrics =
      a.trace == 0 ? end_to_end(*w, a, tally) : per_layer(*w, a, tally);

  for (const Metric& m : metrics)
    std::cout << "metric " << m.name << " = " << json_number(m.value) << " "
              << m.unit << " [" << m.clock << "]\n";
  for (const std::string& why : tally.why) std::cout << "FAILED " << why << "\n";
  std::cout << "provenance {\"workload\": " << json_string(w->name)
            << ", \"seed\": " << a.seed << ", \"trace\": " << a.trace
            << ", \"host\": " << json_string(hostname())
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
            << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
            << ", \"commit\": " << json_string(a.commit) << "}\n";

  std::ostringstream out;
  out << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << tally.attempted
      << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << json_string(metrics[i].name)
        << ": {\"value\": " << json_number(metrics[i].value)
        << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

// Characterization test of the run-level counters: the full metrics
// snapshot counter map (every name and value) plus the scheduler's
// recovery totals, aggregated and per shard, for three deterministic
// sim scenarios. The tables below are golden values: any change to a
// counter's name, to the site that counts it, or to how per-actor
// counts are summed shows up here as a diff. On failure the test prints
// the observed table in the same syntax, ready to review and paste.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "deisa/harness/scenario.hpp"

namespace harness = deisa::harness;

namespace {

using Counters = std::map<std::string, std::uint64_t>;
using Fields = std::vector<std::uint64_t>;

/// Recovery totals in a fixed field order.
Fields recovery_fields(const auto& r) {
  return {r.workers_lost,      r.tasks_rerun,         r.keys_recomputed,
          r.external_rearmed,  r.external_rerouted,   r.mirrors_rearmed,
          r.keys_lost,         r.repush_expired,      r.stale_task_finished,
          r.stale_update_data, r.stale_heartbeats};
}

struct Golden {
  Counters counters;
  Fields recovery;
  std::vector<Fields> shard_recovery;
};

std::string render(const Fields& f) {
  std::ostringstream out;
  out << "{";
  for (std::size_t i = 0; i < f.size(); ++i) out << (i ? ", " : "") << f[i];
  out << "}";
  return out.str();
}

/// The observed values as a Golden initializer.
std::string render(const harness::RunResult& res) {
  std::ostringstream out;
  out << "  const Golden want{\n      {\n";
  for (const auto& [name, value] : res.metrics.counters)
    out << "          {\"" << name << "\", " << value << "},\n";
  out << "      },\n      " << render(recovery_fields(res.recovery))
      << ",\n      {";
  for (std::size_t s = 0; s < res.shard_recovery.size(); ++s)
    out << (s ? ",\n       " : "") << render(recovery_fields(res.shard_recovery[s]));
  out << "}};\n";
  return out.str();
}

void expect_golden(const harness::RunResult& res, const Golden& want) {
  std::vector<Fields> shards;
  for (const auto& sr : res.shard_recovery)
    shards.push_back(recovery_fields(sr));
  EXPECT_EQ(res.metrics.counters, want.counters);
  EXPECT_EQ(recovery_fields(res.recovery), want.recovery);
  EXPECT_EQ(shards, want.shard_recovery);
  if (res.metrics.counters != want.counters ||
      recovery_fields(res.recovery) != want.recovery ||
      shards != want.shard_recovery)
    ADD_FAILURE() << "observed:\n" << render(res);
}

harness::ScenarioParams base_params() {
  harness::ScenarioParams p;
  p.ranks = 4;
  p.workers = 2;
  p.block_bytes = 16 * 16 * sizeof(double);
  p.timesteps = 4;
  p.real_data = true;
  p.cluster.jitter_sigma = 0.0;
  p.sched.service_jitter_sigma = 0.0;
  return p;
}

}  // namespace

TEST(MetricsGolden, Deisa1SmallRun) {
  auto p = base_params();
  p.ranks = 2;
  p.timesteps = 3;
  const auto res = harness::run_scenario(harness::Pipeline::kDeisa1, p);
  const Golden want{
      {
          {"bridge.blocks_sent", 6},
          {"bridge.bytes_sent", 12288},
          {"dataplane.bytes_moved", 39296},
          {"net.bytes", 56194},
          {"net.control_messages", 84},
          {"net.transfers", 25},
          {"scheduler.created.memory", 6},
          {"scheduler.created.waiting", 8},
          {"scheduler.messages.queue_get", 8},
          {"scheduler.messages.queue_put", 8},
          {"scheduler.messages.shutdown", 1},
          {"scheduler.messages.task_finished", 8},
          {"scheduler.messages.total", 43},
          {"scheduler.messages.update_data", 6},
          {"scheduler.messages.update_graph", 4},
          {"scheduler.messages.variable_get", 1},
          {"scheduler.messages.variable_set", 1},
          {"scheduler.messages.wait_key", 6},
          {"scheduler.tasks.created", 14},
          {"scheduler.transitions.processing->memory", 8},
          {"scheduler.transitions.ready->processing", 8},
          {"scheduler.transitions.waiting->ready", 8},
          {"worker.peer_fetch_bytes", 6144},
          {"worker.peer_fetch_cached_bytes", 6144},
          {"worker.peer_fetches", 3},
          {"worker.tasks_executed", 8},
      },
      {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
      {{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}};
  expect_golden(res, want);
}

TEST(MetricsGolden, Deisa3FourShardsProxyPlaneWithGc) {
  auto p = base_params();
  p.shards = 4;
  p.release_consumed = true;
  p.data_plane = deisa::dts::DataPlane::kProxy;
  const auto res = harness::run_scenario(harness::Pipeline::kDeisa3, p);
  const Golden want{
      {
          {"adaptor.external_futures", 16},
          {"bridge.batched_pushes", 16},
          {"bridge.blocks_sent", 16},
          {"bridge.bytes_sent", 32768},
          {"dataplane.bytes_moved", 32768},
          {"dataplane.bytes_referenced", 103904},
          {"net.bytes", 108449},
          {"net.control_messages", 172},
          {"net.transfers", 90},
          {"scheduler.created.external", 34},
          {"scheduler.created.waiting", 10},
          {"scheduler.gc.bytes_released", 70016},
          {"scheduler.gc.keys_released", 24},
          {"scheduler.messages.create_external", 4},
          {"scheduler.messages.shard_key_done", 18},
          {"scheduler.messages.shard_key_released", 18},
          {"scheduler.messages.shutdown", 4},
          {"scheduler.messages.task_finished", 10},
          {"scheduler.messages.total", 84},
          {"scheduler.messages.update_data", 16},
          {"scheduler.messages.update_graph", 4},
          {"scheduler.messages.variable_get", 5},
          {"scheduler.messages.variable_set", 2},
          {"scheduler.messages.wait_key", 3},
          {"scheduler.shard.notify_msgs", 18},
          {"scheduler.shard.release_acks", 18},
          {"scheduler.shard.remote_edges", 18},
          {"scheduler.tasks.created", 44},
          {"scheduler.transitions.external->memory", 34},
          {"scheduler.transitions.processing->memory", 10},
          {"scheduler.transitions.ready->processing", 10},
          {"scheduler.transitions.waiting->ready", 10},
          {"worker.bytes_released", 86400},
          {"worker.keys_released", 24},
          {"worker.peer_fetch_bytes", 16384},
          {"worker.peer_fetch_cached_bytes", 16384},
          {"worker.peer_fetches", 8},
          {"worker.proxies_received", 16},
          {"worker.proxy_forwarded_pulls", 8},
          {"worker.proxy_forwards", 8},
          {"worker.proxy_pulls", 8},
          {"worker.tasks_executed", 10},
      },
      {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
      {{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
       {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
       {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
       {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}};
  expect_golden(res, want);
}

TEST(MetricsGolden, Deisa3FourShardsWorkerKill) {
  auto p = base_params();
  p.shards = 4;
  p.faults =
      deisa::fault::FaultPlan::parse("kill:1@0.07;dup:0.2;drop:0.2;seed:245");
  const auto res = harness::run_scenario(harness::Pipeline::kDeisa3, p);
  ASSERT_EQ(res.workers_killed, 1u);
  const Golden want{
      {
          {"adaptor.external_futures", 16},
          {"bridge.batched_pushes", 16},
          {"bridge.blocks_repushed", 8},
          {"bridge.blocks_sent", 16},
          {"bridge.bytes_sent", 32768},
          {"dataplane.bytes_moved", 136672},
          {"fault.workers_killed", 1},
          {"net.bytes", 136333},
          {"net.control_messages", 174},
          {"net.faults.dropped", 1},
          {"net.faults.duplicated", 3},
          {"net.transfers", 92},
          {"scheduler.created.external", 34},
          {"scheduler.created.waiting", 10},
          {"scheduler.messages.create_external", 4},
          {"scheduler.messages.heartbeat_worker", 3},
          {"scheduler.messages.repush_keys", 20},
          {"scheduler.messages.shard_key_done", 25},
          {"scheduler.messages.shard_worker_dead", 3},
          {"scheduler.messages.shutdown", 4},
          {"scheduler.messages.task_finished", 13},
          {"scheduler.messages.total", 108},
          {"scheduler.messages.update_data", 21},
          {"scheduler.messages.update_graph", 4},
          {"scheduler.messages.variable_get", 5},
          {"scheduler.messages.variable_set", 2},
          {"scheduler.messages.wait_key", 3},
          {"scheduler.messages.worker_lost", 1},
          {"scheduler.recovery.external_rearmed", 8},
          {"scheduler.recovery.mirrors_rearmed", 7},
          {"scheduler.recovery.suspected", 1},
          {"scheduler.recovery.tasks_rerun", 4},
          {"scheduler.recovery.workers_lost", 1},
          {"scheduler.shard.notify_msgs", 25},
          {"scheduler.shard.remote_edges", 18},
          {"scheduler.shard.worker_dead", 3},
          {"scheduler.stale.task_finished", 3},
          {"scheduler.tasks.created", 44},
          {"scheduler.transitions.external->memory", 49},
          {"scheduler.transitions.memory->external", 15},
          {"scheduler.transitions.processing->memory", 10},
          {"scheduler.transitions.processing->waiting", 4},
          {"scheduler.transitions.ready->processing", 14},
          {"scheduler.transitions.waiting->ready", 14},
          {"worker.crashes", 1},
          {"worker.messages_dropped_dead", 12},
          {"worker.tasks_executed", 10},
      },
      {1, 4, 0, 8, 0, 7, 0, 0, 3, 0, 0},
      {{1, 1, 0, 1, 0, 2, 0, 0, 0, 0, 0},
       {0, 1, 0, 5, 0, 1, 0, 0, 3, 0, 0},
       {0, 2, 0, 1, 0, 4, 0, 0, 0, 0, 0},
       {0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}}};
  expect_golden(res, want);
}

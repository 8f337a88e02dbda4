#include "deisa/dts/shard.hpp"

namespace deisa::dts {

ShardedScheduler::ShardedScheduler(exec::Executor& engine,
                                   exec::Transport& cluster, int node,
                                   int num_shards, SchedulerParams params) {
  DEISA_CHECK(num_shards >= 1, "num_shards must be >= 1: " << num_shards);
  // The client's per-dependency subscription dedup uses a 64-bit consumer
  // bitmask; far above any useful shard count for co-located actors.
  DEISA_CHECK(num_shards <= 64, "num_shards must be <= 64: " << num_shards);
  mapper_.shards = num_shards;
  shards_.reserve(static_cast<std::size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    SchedulerParams p = params;
    // Shard 0 keeps the configured seed so a 1-shard run draws the exact
    // jitter stream of the unsharded scheduler; siblings decorrelate.
    p.seed = params.seed + static_cast<std::uint64_t>(i);
    shards_.push_back(std::make_unique<Scheduler>(engine, cluster, node, p));
  }
  std::vector<exec::Channel<SchedMsg>*> peers = inboxes();
  for (int i = 0; i < num_shards; ++i)
    shards_[static_cast<std::size_t>(i)]->set_shard_context(i, num_shards,
                                                            peers);
}

std::vector<exec::Channel<SchedMsg>*> ShardedScheduler::inboxes() {
  std::vector<exec::Channel<SchedMsg>*> out;
  out.reserve(shards_.size());
  for (auto& s : shards_) out.push_back(&s->inbox());
  return out;
}

void ShardedScheduler::attach_workers(const std::vector<WorkerRef>& refs) {
  for (auto& s : shards_) s->attach_workers(refs);
}

void ShardedScheduler::start(exec::Executor& engine) {
  for (auto& s : shards_) {
    void* strand = engine.new_strand();
    engine.spawn_on(strand, s->run());
    engine.spawn_on(strand, s->run_failure_detector());
  }
}

void ShardedScheduler::send_shutdown() {
  for (auto& s : shards_) {
    SchedMsg stop(SchedMsgKind::kShutdown);
    s->inbox().send(std::move(stop));
  }
}

std::uint64_t ShardedScheduler::sum(SchedCounter c) const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->counters()[c];
  return n;
}

double ShardedScheduler::total_service_time() const {
  double t = 0.0;
  for (const auto& s : shards_) t += s->total_service_time();
  return t;
}

}  // namespace deisa::dts

// Multi-scheduler sharding: the key space is partitioned across N
// co-located scheduler actors so update_graph ingestion, external
// pushes, and completion cascades scale past one strand (the
// centralized-scheduler wall of the Böhm/Beránek analysis).
//
// Partitioning is by key hash: shard_of(key) = hash_key(key) % N, a
// pure function of the key string — deterministic across runs,
// substrates, and processes, and exactly the hash the KeyTable interns
// with, so routing costs nothing extra on the hot path.
//
// Cross-shard dependencies use a subscription protocol (DESIGN.md §5i):
// the client splits each update_graph batch per-shard in one pass and
// piggybacks, on the slice sent to a dependency's OWNER shard, a
// subscription {key, subscriber shard}. The subscriber shard interns a
// local mirror record (state kExternal, origin kRemote) for the foreign
// dependency; when the key completes, the owner forwards a compact
// kShardKeyDone{key, worker, bytes} and the mirror rides the proven
// external→memory cascade (erred keys ride the poison cascade). At
// N == 1 every shard branch is dead and the behavior is bit-identical
// to the single scheduler.
//
// Liveness and key lifetime compose with sharding (DESIGN.md §5j):
// heartbeats land on shard 0 — the liveness authority — which
// broadcasts kShardWorkerDead{worker, epoch} so every shard runs
// lineage recovery over its own records, and the refcount GC charges
// cross-shard consumers through the subscription slices, drained back
// via kShardKeyReleased acks, so the owner releases iff local AND
// remote consumers finished.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "deisa/dts/key_table.hpp"
#include "deisa/dts/scheduler.hpp"

namespace deisa::dts {

/// Deterministic key→shard assignment shared by clients, workers, and
/// the shards themselves. Hashes the key STRING (KeyIds are per-shard
/// dense indices and mean nothing across shards).
struct ShardMapper {
  int shards = 1;
  int shard_of_hash(std::uint64_t h) const {
    return shards <= 1
               ? 0
               : static_cast<int>(h % static_cast<std::uint64_t>(shards));
  }
  int shard_of(std::string_view key) const {
    return shards <= 1 ? 0 : shard_of_hash(KeyTable::hash_key(key));
  }
};

/// N scheduler actors over one worker pool. Owns the shards, wires the
/// peer-inbox mesh for kShardKeyDone, and aggregates the per-shard
/// observability counters the harness reports. All shards live on the
/// same cluster node (`node`); on the threads substrate each runs on
/// its own strand, so they execute concurrently.
class ShardedScheduler {
public:
  ShardedScheduler(exec::Executor& engine, exec::Transport& cluster, int node,
                   int num_shards, SchedulerParams params);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const ShardMapper& mapper() const { return mapper_; }
  Scheduler& shard(int i) { return *shards_.at(static_cast<std::size_t>(i)); }
  const Scheduler& shard(int i) const {
    return *shards_.at(static_cast<std::size_t>(i));
  }
  /// Shard inboxes in shard order (the routing table handed to clients
  /// and workers).
  std::vector<exec::Channel<SchedMsg>*> inboxes();

  void attach_workers(const std::vector<WorkerRef>& refs);
  /// Spawn every shard's message loop + failure detector, each shard
  /// pair on its own strand (the single-shard strand layout is exactly
  /// the pre-shard Runtime's).
  void start(exec::Executor& engine);
  /// Post kShutdown to every shard inbox (idempotent per call site).
  void send_shutdown();

  // ---- aggregated observability (sums over shards) ----
  /// Counter `c` summed over every shard's block. Per-shard values stay
  /// readable through shard(i).counters(); recovery work is spread across
  /// shards (each recovers its own records) while shard 0 counts
  /// kWorkersLost exactly once per death.
  std::uint64_t sum(SchedCounter c) const;
  std::uint64_t total_messages() const {
    return sum(SchedCounter::kMessagesTotal);
  }
  std::uint64_t messages_received(SchedMsgKind kind) const {
    return sum(arrival_counter(kind));
  }
  std::uint64_t keys_released() const {
    return sum(SchedCounter::kKeysReleased);
  }
  std::uint64_t remote_edges() const { return sum(SchedCounter::kRemoteEdges); }
  std::uint64_t notify_msgs() const { return sum(SchedCounter::kNotifyMsgs); }
  std::uint64_t release_acks() const {
    return sum(SchedCounter::kReleaseAcks);
  }
  double total_service_time() const;

private:
  ShardMapper mapper_;
  std::vector<std::unique_ptr<Scheduler>> shards_;
};

}  // namespace deisa::dts

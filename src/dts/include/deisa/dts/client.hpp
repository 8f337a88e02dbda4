// Client actor: the analytics-side handle on the distributed task system.
// Extends the dask.distributed Client surface with the paper's additions:
//   * scatter(..., keys=..., external=...)  (§2.2)
//   * external_futures(...) — create tasks in the external state ahead of
//     the data, so whole multi-timestep graphs can be submitted up front.
// DEISA bridges are built on this same class (the paper keeps the bridge
// "built in the Dask client class").
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "deisa/dts/scheduler.hpp"
#include "deisa/dts/shard.hpp"
#include "deisa/dts/worker.hpp"

namespace deisa::dts {

/// Client-side mirror of a scheduler task (a lightweight future).
class Future {
public:
  Future() = default;
  Future(Key key, class Client* client) : key_(std::move(key)), client_(client) {}
  const Key& key() const { return key_; }
  bool valid() const { return client_ != nullptr; }

private:
  Key key_;
  Client* client_ = nullptr;
};

/// A client's data-plane byte counters (its obs::CounterBlock).
enum class ClientCounter : std::uint8_t {
  kBytesMoved,       // obs::kBytesMoved
  kBytesReferenced,  // obs::kBytesReferenced
  kCount,
};

inline const char* metric_name(ClientCounter c) {
  using enum ClientCounter;
  switch (c) {
    case kBytesMoved: return obs::kBytesMoved;
    case kBytesReferenced: return obs::kBytesReferenced;
    case kCount: break;
  }
  return "?";
}

class Client {
public:
  /// `shard_inboxes` is the scheduler-shard routing table
  /// (ShardedScheduler::inboxes(), at least one entry). Submissions are
  /// split per shard in one pass, with cross-shard dependency
  /// subscriptions piggybacked on the owner's slice; keyed RPCs route to
  /// the shard owning the key, name-keyed ops (variables/queues) to the
  /// shard owning the name. With one shard every split is the whole
  /// batch.
  Client(exec::Executor& engine, exec::Transport& cluster, int id, int node,
         int scheduler_node, std::vector<exec::Channel<SchedMsg>*> shard_inboxes,
         std::vector<WorkerRef> workers);

  int id() const { return id_; }
  int node() const { return node_; }
  int num_workers() const { return static_cast<int>(workers_.size()); }
  exec::Executor& engine() { return *engine_; }

  /// Switch this client onto the proxy data plane (set by the Runtime;
  /// `depot` is the runtime-wide payload depot). Scatters then deposit
  /// payloads and push ownership tokens, and gathers dereference
  /// forwarded handles themselves.
  void set_data_plane(DataPlane plane, ProxyDepot* depot) {
    plane_ = plane;
    depot_ = depot;
  }
  DataPlane data_plane() const { return plane_; }

  /// Submit a task graph; `wants` marks the keys this client will gather.
  /// A shard whose slice is empty gets no message.
  exec::Co<void> submit(std::vector<TaskSpec> tasks,
                       std::vector<Key> wants = {});

  /// Create external tasks (paper §2.2): keyed, unschedulable, completed
  /// later by an external environment. One batched RPC.
  exec::Co<std::vector<Future>> external_futures(
      std::vector<Key> keys, std::vector<int> preferred_workers = {});

  /// Scatter one payload to a worker. With `external=true` this completes
  /// a task previously created by external_futures (scheduler transitions
  /// it external→memory and unblocks dependents). `inform_scheduler`
  /// mirrors the two messages of a dask scatter: bulk data to the worker
  /// plus metadata to the scheduler. Returns the scheduler's registration
  /// acknowledgement: the worker id normally, or one of the negative ack
  /// codes (kAckErred / kAckDiscarded / kAckRepushPending) under faults —
  /// kAckRepushPending asks the caller to follow up with repush_keys().
  /// `cause` is the sender's causality id (a bridge push span); it rides
  /// on both the worker push and the scheduler registration so the trace
  /// links push -> update_data.
  exec::Co<int> scatter(Key key, Data data, int worker, bool external = false,
                       bool inform_scheduler = true, std::uint64_t cause = 0);

  /// Coalesced scatter: push several payloads to ONE worker as a single
  /// bulk transfer plus one batched registration RPC per owning shard,
  /// instead of a (transfer, kUpdateData, ack) round trip per block.
  /// Returns the per-key acks in item order, same codes as scatter().
  exec::Co<std::vector<int>> scatter_batch(
      std::vector<std::pair<Key, Data>> items, int worker,
      bool external = false, std::uint64_t cause = 0);

  /// Drain this producer's pending re-push assignments: lost external
  /// keys the scheduler wants pushed again, each with its re-routed
  /// target worker. Synchronous RPC (see kAckRepushPending).
  exec::Co<RepushList> repush_keys();

  /// Register a wake-up channel carried on every scatter registration.
  /// The scheduler pokes it with kAckRepushPending when re-push work
  /// appears for this producer after its last push — the only path by
  /// which a crash detected late (after the final block went out) still
  /// reaches the producer's replay buffer.
  void set_notify_channel(std::shared_ptr<exec::Channel<int>> ch) {
    notify_ = std::move(ch);
  }

  /// Block until `key` is finished; returns the worker holding it.
  /// Throws util::Error if the task erred.
  exec::Co<int> wait_key(const Key& key);

  /// wait_key + fetch the payload from the owning worker.
  exec::Co<Data> gather(const Key& key);

  // Dask Variables: named single-slot broadcast values (used for the
  // contract exchange in DEISA2/3 — two variables instead of the
  // nbr_ranks queues of DEISA1).
  exec::Co<void> variable_set(const std::string& name, Data value);
  exec::Co<Data> variable_get(const std::string& name);

  // Dask Queues (the DEISA1 mechanism).
  exec::Co<void> queue_put(const std::string& name, Data value);
  exec::Co<Data> queue_get(const std::string& name);

  /// Periodic client heartbeat to the scheduler. DEISA1 keeps the default
  /// interval, DEISA2 raises it to 60 s, DEISA3 sets it to infinity
  /// (interval <= 0 here). Runs until `stop` is set.
  exec::Co<void> run_heartbeats(double interval, exec::Event& stop);

  /// Cancel a not-yet-finished task: it (and its downstream cone) moves
  /// to the erred state with a "cancelled" message. Completed results
  /// are left untouched. Synchronous.
  exec::Co<void> cancel(const Key& key);

  /// Causal provenance of the last payload this client received (gather,
  /// queue_get, variable_get). Graph submissions are stamped with it so
  /// data-driven control flow — "a result arrived, submit the next step"
  /// — shows up as an edge in the causal DAG instead of a fresh root.
  std::uint64_t last_cause() const { return last_cause_; }

private:
  exec::Co<void> send_to_scheduler(
      SchedMsg msg, exec::Delivery delivery = exec::Delivery::kReliable,
      int shard = 0);
  int num_shards() const { return static_cast<int>(shard_inboxes_.size()); }
  /// Shard owning `key` (0 with one shard).
  int shard_of(std::string_view key) const { return mapper_.shard_of(key); }
  /// One empty `kind` message per shard, each stamped with `cause`: the
  /// per-shard split of a batched request.
  std::vector<SchedMsg> slices(SchedMsgKind kind,
                               std::uint64_t cause = 0) const;
  /// Send every non-empty slice to its shard.
  exec::Co<void> send_slices(std::vector<SchedMsg> slices);
  /// The data half of scatter() and scatter_batch(): one kReceiveData
  /// message carrying every item to `worker`. The copy plane moves the
  /// summed payload as one bulk transfer; the proxy plane deposits each
  /// payload here and sends one frame of ownership tokens.
  exec::Co<void> push(std::vector<std::pair<Key, Data>> items, int worker,
                      std::uint64_t cause);

  exec::Executor* engine_;
  exec::Transport* cluster_;
  int id_;
  int node_;
  int scheduler_node_;
  std::vector<exec::Channel<SchedMsg>*> shard_inboxes_;
  ShardMapper mapper_;
  std::vector<WorkerRef> workers_;
  std::shared_ptr<exec::Channel<int>> notify_;
  DataPlane plane_ = DataPlane::kCopy;
  ProxyDepot* depot_ = nullptr;
  std::uint64_t last_cause_ = 0;
  obs::CounterBlock<ClientCounter> counters_;
};

}  // namespace deisa::dts

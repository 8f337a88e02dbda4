// Worker actor: executes tasks, stores results, serves peer fetches, and
// accepts direct data pushes (the scatter path DEISA bridges use to move
// simulation blocks into the cluster without staging through the
// scheduler).
#pragma once

#include <unordered_map>

#include "deisa/dts/depot.hpp"
#include "deisa/dts/messages.hpp"
#include "deisa/dts/task.hpp"
#include "deisa/exec/transport.hpp"
#include "deisa/exec/primitives.hpp"
#include "deisa/obs/dataplane.hpp"
#include "deisa/obs/metrics.hpp"

namespace deisa::dts {

struct WorkerParams {
  int nthreads = 1;
  /// Seconds between heartbeats to the scheduler; <= 0 disables.
  double heartbeat_interval = 1.0;
  /// Peer dependency fetches a worker keeps in flight at once. Fetches of
  /// a compute request overlap up to this bound (1 restores the old
  /// strictly sequential behavior); in-flight fetches of the same key are
  /// shared, never duplicated.
  int max_concurrent_fetches = 8;
  /// How pushed payloads reach this worker: eager bytes (kCopy) or
  /// lazily-resolved proxy handles (kProxy). Must match the clients'.
  DataPlane data_plane = DataPlane::kCopy;
};

/// A worker's counters (see metric_name() for their names).
enum class WorkerCounter : std::uint8_t {
  kTasksExecuted,  // results reported to the scheduler, erred included
  kTasksErred,
  kKeysReleased,  // scheduler-directed GC releases
  kBytesReleased,
  kMessagesDroppedDead,  // inbox messages swallowed after a crash
  kCrashes,
  kPeerFetches,  // fetches a peer served (not cache hits, joins or refusals)
  kPeerFetchBytes,
  kPeerFetchCachedBytes,  // kept apart from bytes_stored()
  kPeerFetchCacheHits,
  kPeerFetchShared,  // joined a fetch already in flight
  kProxiesReceived,
  kProxyPulls,        // cross-node handle resolutions
  kProxyLocalDerefs,  // same-node (zero-copy) resolutions
  kProxyForwardedPulls,
  kProxyForwards,  // unresolved handles forwarded to a requester
  kBytesMoved,
  kBytesReferenced,
  kCount,
};

inline const char* metric_name(WorkerCounter c) {
  using enum WorkerCounter;
  switch (c) {
    case kTasksExecuted: return "worker.tasks_executed";
    case kTasksErred: return "worker.tasks_erred";
    case kKeysReleased: return "worker.keys_released";
    case kBytesReleased: return "worker.bytes_released";
    case kMessagesDroppedDead: return "worker.messages_dropped_dead";
    case kCrashes: return "worker.crashes";
    case kPeerFetches: return "worker.peer_fetches";
    case kPeerFetchBytes: return "worker.peer_fetch_bytes";
    case kPeerFetchCachedBytes: return "worker.peer_fetch_cached_bytes";
    case kPeerFetchCacheHits: return "worker.peer_fetch_cache_hits";
    case kPeerFetchShared: return "worker.peer_fetch_shared";
    case kProxiesReceived: return "worker.proxies_received";
    case kProxyPulls: return "worker.proxy_pulls";
    case kProxyLocalDerefs: return "worker.proxy_local_derefs";
    case kProxyForwardedPulls: return "worker.proxy_forwarded_pulls";
    case kProxyForwards: return "worker.proxy_forwards";
    case kBytesMoved: return obs::kBytesMoved;
    case kBytesReferenced: return obs::kBytesReferenced;
    case kCount: break;
  }
  return "?";
}

class Worker {
public:
  Worker(exec::Executor& engine, exec::Transport& cluster, int id, int node,
         WorkerParams params);

  int id() const { return id_; }
  int node() const { return node_; }
  exec::Channel<WorkerMsg>& inbox() { return inbox_; }

  /// Wire up peers and the scheduler (done once by the Runtime).
  /// `shard_inboxes` is the scheduler-shard routing table
  /// (ShardedScheduler::inboxes(), at least one entry): task completions
  /// go to the shard owning the key, keyless traffic (heartbeats) to
  /// shard 0.
  void attach(int scheduler_node,
              std::vector<exec::Channel<SchedMsg>*> shard_inboxes,
              std::vector<WorkerRef> peers);

  /// Shared payload depot of the proxy data plane (nullptr on kCopy).
  void set_depot(ProxyDepot* depot) { depot_ = depot; }

  /// Main actor loop; exits on kShutdown.
  exec::Co<void> run();
  /// Heartbeat loop (spawned alongside run()); exits once shutdown.
  exec::Co<void> run_heartbeats();

  /// Fail-stop crash (fault injection): the worker stops heartbeating,
  /// abandons in-flight computes, loses its store, and drops every queued
  /// and future message except fetches, which it refuses (a PeerLost
  /// reply, as from a closed port) so requesters give up their attempt
  /// instead of waiting forever. The actor stays allocated.
  void crash();
  bool alive() const { return alive_; }

  // ---- observability ----
  const obs::CounterBlock<WorkerCounter>& counters() const { return counters_; }
  /// Tasks that executed successfully.
  std::uint64_t tasks_executed() const {
    return counters_[WorkerCounter::kTasksExecuted] -
           counters_[WorkerCounter::kTasksErred];
  }
  /// Cumulative bytes ever stored (throughput measure). Excludes cached
  /// copies of peer-fetched dependencies (kPeerFetchCachedBytes).
  std::uint64_t bytes_stored() const { return bytes_stored_; }
  /// Bytes currently resident in the worker's store.
  std::uint64_t memory_bytes() const { return memory_bytes_; }
  /// High-water mark of memory_bytes() over the worker's lifetime. The
  /// refcount-GC stress test asserts this stays bounded as timesteps grow.
  std::uint64_t peak_memory_bytes() const { return peak_memory_bytes_; }
  std::size_t keys_in_memory() const { return store_.size(); }
  /// Unresolved proxy handles currently registered (proxy plane only).
  std::size_t keys_proxied() const { return proxy_.size(); }
  /// Drop a key from local memory (scheduler-directed release).
  bool release_key(const Key& key);
  bool has_local(const Key& key) const { return store_.count(key) != 0; }
  double busy_time() const { return cpu_.total_busy_time(); }

  /// Local blocking lookup: waits until `key` is locally readable and
  /// returns a non-owning reference into the store (stable until the key
  /// is released — callers copy the Data struct, a cheap shared_ptr
  /// alias, before suspending). On the proxy plane an unresolved handle
  /// is materialized first (lazy resolution, deduplicated per key).
  /// Returns nullptr once the worker has crashed.
  exec::Co<const Data*> local_ref(const Key& key);

private:
  /// One in-flight peer fetch, shared by every task waiting on the key
  /// from the same owner.
  struct InflightFetch {
    explicit InflightFetch(exec::Executor& engine, int owner_ = -1)
        : done(engine), owner(owner_) {}
    exec::Event done;
    int owner;
    Data data;  // the payload, or a PeerLost marker
  };

  exec::Co<void> handle_compute(TaskSpec spec, std::vector<DepLocation> deps,
                                std::uint64_t cause);
  /// A dependency's payload, or a PeerLost marker when its owner refused
  /// the fetch (handle_compute then drops the attempt).
  exec::Co<Data> fetch(const DepLocation& dep);
  /// Materialize the proxy handle registered for `key` into the store:
  /// pull the deposit (a modeled cross-node transfer when the handle
  /// points off-node; zero-copy otherwise). Concurrent resolvers of the
  /// same key join one resolution.
  exec::Co<void> resolve_proxy(const Key& key);
  /// Register a pushed proxy handle (proxy-plane kReceiveData).
  void store_put_proxy(Key key, const ProxyHandle& handle);
  /// Fetch one dependency into slot `i` of the shared input vector
  /// (spawned per dep by handle_compute; joined with when_all).
  exec::Co<void> fetch_one(std::shared_ptr<std::vector<Data>> inputs,
                          std::size_t i, DepLocation dep);
  exec::Co<void> handle_get_data(WorkerMsg msg);
  /// `cached` accounts the bytes as a cached peer copy (memory_bytes_
  /// and kPeerFetchCachedBytes, not bytes_stored_).
  void store_put(Key key, Data data, bool cached = false);
  /// Wake the local_ref loops parked on `key`.
  void wake_arrival(const Key& key);
  exec::Co<void> notify_scheduler(
      SchedMsg msg, exec::Delivery delivery = exec::Delivery::kReliable);

  /// Update the memory gauge + counter track after a store change.
  void record_memory();
  /// Charge a payload hand-off to bytes_moved (kCopy) or
  /// bytes_referenced (kProxy): how a local read behaves on this plane.
  void count_local_read(std::uint64_t bytes);

  exec::Executor* engine_;
  exec::Transport* cluster_;
  int id_;
  int node_;
  std::string actor_;  // trace actor name, "worker-<id>"
  std::string memory_gauge_;  // "<actor>.memory_bytes"
  WorkerParams params_;
  exec::Channel<WorkerMsg> inbox_;
  exec::FifoServer cpu_;

  int scheduler_node_ = -1;
  std::vector<exec::Channel<SchedMsg>*> shard_inboxes_;
  std::vector<WorkerRef> peers_;

  std::unordered_map<Key, Data> store_;
  /// Unresolved proxy handles: pushed tokens whose payload still lives
  /// in the depot. Moved into store_ (and erased here) on first use.
  std::unordered_map<Key, ProxyHandle> proxy_;
  ProxyDepot* depot_ = nullptr;
  std::unordered_map<Key, std::unique_ptr<exec::Event>> arrivals_;
  /// Peer fetches currently on the wire, keyed by the requested key.
  /// Tasks needing a key already in flight from the same owner join the
  /// existing fetch instead of issuing a duplicate request; a fetch of a
  /// key recovery moved to another owner starts a flight of its own.
  std::unordered_map<Key, std::shared_ptr<InflightFetch>> inflight_;
  /// Proxy resolutions currently materializing, keyed by the key; later
  /// dereferences of the same handle join instead of double-pulling.
  std::unordered_map<Key, std::shared_ptr<InflightFetch>> resolving_;
  /// Bounds the number of concurrent outbound peer fetches (NIC model).
  exec::Semaphore fetch_slots_;
  obs::CounterBlock<WorkerCounter> counters_;
  std::uint64_t bytes_stored_ = 0;
  std::uint64_t memory_bytes_ = 0;
  std::uint64_t peak_memory_bytes_ = 0;
  bool stopping_ = false;
  bool alive_ = true;
};

}  // namespace deisa::dts

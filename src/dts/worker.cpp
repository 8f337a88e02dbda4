#include "deisa/dts/worker.hpp"

#include "deisa/dts/shard.hpp"
#include "deisa/obs/trace.hpp"

namespace deisa::dts {

Worker::Worker(exec::Executor& engine, exec::Transport& cluster, int id, int node,
               WorkerParams params)
    : engine_(&engine),
      cluster_(&cluster),
      id_(id),
      node_(node),
      actor_("worker-" + std::to_string(id)),
      memory_gauge_(actor_ + ".memory_bytes"),
      params_(params),
      inbox_(engine),
      cpu_(engine, static_cast<std::size_t>(std::max(1, params.nthreads))),
      fetch_slots_(engine, static_cast<std::size_t>(
                               std::max(1, params.max_concurrent_fetches))) {}

void Worker::record_memory() {
  if (memory_bytes_ > peak_memory_bytes_) peak_memory_bytes_ = memory_bytes_;
  if (auto* m = obs::metrics())
    m->gauge(memory_gauge_).set(static_cast<double>(memory_bytes_));
  obs::trace_counter(actor_, "memory", "memory_bytes",
                     static_cast<double>(memory_bytes_));
}

void Worker::count_local_read(std::uint64_t bytes) {
  counters_.add(params_.data_plane == DataPlane::kCopy
                    ? WorkerCounter::kBytesMoved
                    : WorkerCounter::kBytesReferenced,
                bytes);
}

void Worker::attach(int scheduler_node,
                    std::vector<exec::Channel<SchedMsg>*> shard_inboxes,
                    std::vector<WorkerRef> peers) {
  scheduler_node_ = scheduler_node;
  shard_inboxes_ = std::move(shard_inboxes);
  peers_ = std::move(peers);
}

exec::Co<void> Worker::run() {
  while (true) {
    WorkerMsg msg = co_await inbox_.recv();
    if (!alive_ && msg.kind != WorkerMsgKind::kShutdown) {
      // Crashed worker: every message disappears into the void, except
      // that a fetch is refused, as a connection to a dead process is:
      // the requester gives its attempt up instead of holding a fetch
      // slot forever. The scheduler learns of the death from the missed
      // heartbeats.
      counters_.add(WorkerCounter::kMessagesDroppedDead);
      if (msg.kind == WorkerMsgKind::kGetData)
        msg.reply_data->send(make_lost_data());
      continue;
    }
    switch (msg.kind) {
      case WorkerMsgKind::kCompute:
        engine_->spawn(handle_compute(std::move(msg.spec), std::move(msg.deps),
                                      msg.cause));
        break;
      case WorkerMsgKind::kReceiveData:
        // Pushed payloads inherit the push span as provenance so later
        // consumers (gather, queue hand-offs) can link back to it.
        for (auto& [key, payload] : msg.batch) {
          if (msg.cause != 0) payload.cause = msg.cause;
          if (const ProxyHandle* h = as_proxy(payload)) {
            ProxyHandle handle = *h;
            if (msg.cause != 0) handle.cause = msg.cause;
            store_put_proxy(std::move(key), handle);
          } else {
            store_put(std::move(key), std::move(payload));
          }
        }
        break;
      case WorkerMsgKind::kGetData:
        engine_->spawn(handle_get_data(std::move(msg)));
        break;
      case WorkerMsgKind::kReleaseKey: {
        // Refcount GC: the scheduler proved every consumer of this key
        // has finished, so its bytes can go — the store copy, any
        // still-unresolved proxy handle, and the shared deposit behind
        // it (this worker owns the key, so it owns the deposit too).
        std::uint64_t freed = 0;
        if (const auto it = store_.find(msg.key); it != store_.end())
          freed += it->second.bytes;
        release_key(msg.key);
        proxy_.erase(msg.key);
        if (depot_) freed += depot_->erase(msg.key);
        counters_.add(WorkerCounter::kKeysReleased);
        counters_.add(WorkerCounter::kBytesReleased, freed);
        break;
      }
      case WorkerMsgKind::kShutdown:
        stopping_ = true;
        co_return;
    }
  }
}

exec::Co<void> Worker::run_heartbeats() {
  if (params_.heartbeat_interval <= 0.0) co_return;
  while (!stopping_ && alive_) {
    co_await engine_->delay(params_.heartbeat_interval);
    if (stopping_ || !alive_) co_return;
    SchedMsg hb(SchedMsgKind::kHeartbeatWorker);
    hb.worker = id_;
    hb.sender_node = node_;
    co_await notify_scheduler(std::move(hb), exec::Delivery::kDroppable);
  }
}

void Worker::crash() {
  if (!alive_) return;
  alive_ = false;
  store_.clear();
  proxy_.clear();  // pushed handles die with the worker; deposits stay
                   // in the depot for the re-push protocol to re-route
  memory_bytes_ = 0;
  record_memory();
  // Wake every local_ref parked on a key that will now never arrive; it
  // sees the crash and gives up.
  for (auto& [key, event] : arrivals_) event->set();
  arrivals_.clear();
  counters_.add(WorkerCounter::kCrashes);
  obs::trace_instant(actor_, "lifecycle", "crash");
}

bool Worker::release_key(const Key& key) {
  const auto it = store_.find(key);
  if (it == store_.end()) return false;
  memory_bytes_ -= it->second.bytes;
  store_.erase(it);
  record_memory();
  return true;
}

void Worker::store_put(Key key, Data data, bool cached) {
  // A cached copy of a peer's data is resident memory, but it is not new
  // data produced or received by this worker: account it on its own
  // counter so bytes_stored() keeps measuring store throughput.
  if (cached)
    counters_.add(WorkerCounter::kPeerFetchCachedBytes, data.bytes);
  else
    bytes_stored_ += data.bytes;
  memory_bytes_ += data.bytes;
  // Single probe: try_emplace finds-or-inserts in one hash, and the key
  // string moves into the store instead of being copied.
  const auto [slot, fresh] = store_.try_emplace(std::move(key));
  if (!fresh) memory_bytes_ -= slot->second.bytes;
  slot->second = std::move(data);
  record_memory();
  wake_arrival(slot->first);
}

void Worker::store_put_proxy(Key key, const ProxyHandle& handle) {
  // A handle is metadata, not resident payload: memory accounting stays
  // untouched until resolution materializes the bytes.
  proxy_[key] = handle;
  counters_.add(WorkerCounter::kProxiesReceived);
  // local_ref loops parked on this key re-probe, find the handle, and
  // resolve it.
  wake_arrival(key);
}

void Worker::wake_arrival(const Key& key) {
  const auto it = arrivals_.find(key);
  if (it != arrivals_.end()) {
    it->second->set();
    arrivals_.erase(it);
  }
}

exec::Co<void> Worker::resolve_proxy(const Key& key) {
  // A resolution already in flight for this key: join it.
  if (const auto it = resolving_.find(key); it != resolving_.end()) {
    auto flight = it->second;  // keep alive across the await
    co_await flight->done.wait();
    co_return;
  }
  const auto hit = proxy_.find(key);
  if (hit == proxy_.end()) co_return;  // raced an earlier resolution
  const ProxyHandle handle = hit->second;
  auto flight = std::make_shared<InflightFetch>(*engine_);
  resolving_.emplace(key, flight);
  co_await fetch_slots_.acquire();
  obs::Span span = obs::trace_span(actor_, "resolve_proxy", key);
  if (span.active()) {
    span.set_cause(handle.cause, obs::EdgeKind::kPush);
    span.add_arg(obs::arg("bytes", handle.bytes));
  }
  // First dereference on this node: the payload bytes move now, over
  // the same transport a copy-plane push would have used eagerly (or are
  // aliased out of the depot when the origin is this node).
  PulledDeposit pulled =
      co_await pull_deposit(*cluster_, depot_, key, handle, node_);
  if (pulled.moved) {
    counters_.add(WorkerCounter::kBytesMoved, handle.bytes);
    counters_.add(WorkerCounter::kProxyPulls);
  } else {
    counters_.add(WorkerCounter::kBytesReferenced, handle.bytes);
    counters_.add(WorkerCounter::kProxyLocalDerefs);
  }
  fetch_slots_.release();
  span.finish();
  if (alive_) {
    proxy_.erase(key);
    store_put(key, std::move(pulled.data));
  }
  flight->done.set();
  resolving_.erase(key);
}

exec::Co<const Data*> Worker::local_ref(const Key& key) {
  while (true) {
    if (!alive_) co_return nullptr;
    const auto it = store_.find(key);
    // Non-owning reference into the store: element addresses are stable
    // under rehash, and the entry outlives the caller's read (releases
    // only happen once every consumer finished).
    if (it != store_.end()) co_return &it->second;
    if (proxy_.count(key) != 0) {
      co_await resolve_proxy(key);
      continue;  // resolution moved the payload into store_
    }
    auto ev = arrivals_.find(key);
    if (ev == arrivals_.end())
      ev = arrivals_.emplace(key, std::make_unique<exec::Event>(*engine_)).first;
    // The Event object may be erased (and the map rehashed) once set;
    // capture the pointer before awaiting.
    exec::Event* event = ev->second.get();
    co_await event->wait();
  }
}

exec::Co<Data> Worker::fetch(const DepLocation& dep) {
  if (dep.owner == id_ || dep.owner < 0) {
    // Local (or still in flight to this worker, e.g. an external-task
    // block the bridge pushes here): wait for the store and hand back a
    // shared alias. The copy plane models dask's per-read serialization
    // (every local dependency read duplicates the payload); the proxy
    // plane reads by reference, so local deps move zero extra bytes.
    const Data* d = co_await local_ref(dep.key);
    if (d == nullptr) co_return Data();  // crashed: the attempt dies here
    count_local_read(d->bytes);
    co_return *d;
  }
  DEISA_CHECK(static_cast<std::size_t>(dep.owner) < peers_.size(),
              "dep owner " << dep.owner << " unknown");
  // Already cached from an earlier fetch: no network round trip.
  if (const auto hit = store_.find(dep.key); hit != store_.end()) {
    counters_.add(WorkerCounter::kPeerFetchCacheHits);
    count_local_read(hit->second.bytes);
    co_return hit->second;
  }
  // The same key is already on the wire from the same owner for another
  // task: join that fetch instead of issuing a duplicate request.
  if (const auto it = inflight_.find(dep.key);
      it != inflight_.end() && it->second->owner == dep.owner) {
    auto flight = it->second;  // keep alive across the await
    counters_.add(WorkerCounter::kPeerFetchShared);
    co_await flight->done.wait();
    co_return flight->data;
  }
  // First requester: register the flight *before* waiting for a fetch
  // slot so later requesters of the same key join immediately instead of
  // queueing their own fetch behind the semaphore.
  auto flight = std::make_shared<InflightFetch>(*engine_, dep.owner);
  inflight_.insert_or_assign(dep.key, flight);
  co_await fetch_slots_.acquire();
  // Peer fetch: request + bulk transfer back.
  const WorkerRef& peer = peers_[static_cast<std::size_t>(dep.owner)];
  obs::Span span = obs::trace_span(actor_, "transfer", dep.key);
  if (span.active())
    span.add_arg(obs::arg("from_worker", static_cast<std::uint64_t>(dep.owner)));
  auto reply = std::make_shared<exec::Channel<Data>>(*engine_);
  co_await cluster_->send_control(node_, peer.node,
                                  kControlMsgBase + dep.key.size());
  WorkerMsg req(WorkerMsgKind::kGetData);
  req.key = dep.key;
  req.requester_node = node_;
  req.reply_data = reply;
  peer.inbox->send(std::move(req));
  Data d = co_await reply->recv();
  // A PeerLost reply (the owner crashed) has nothing to pull or cache:
  // the flight ends below, and every joiner gives its attempt up too.
  const bool lost = is_lost(d);
  if (const ProxyHandle* h = as_proxy(d)) {
    // The owner never materialized the block — it forwarded the handle
    // (token-sized reply). Pull the deposit directly from its origin
    // instead of bouncing the bytes through the owner.
    const ProxyHandle handle = *h;
    const std::uint64_t push_cause = d.cause;
    PulledDeposit pulled =
        co_await pull_deposit(*cluster_, depot_, dep.key, handle, node_);
    counters_.add(pulled.moved ? WorkerCounter::kBytesMoved
                               : WorkerCounter::kBytesReferenced,
                  handle.bytes);
    d = std::move(pulled.data);
    if (push_cause != 0) d.cause = push_cause;
    counters_.add(WorkerCounter::kProxyForwardedPulls);
  } else if (!lost) {
    // Real payload crossed the wire from the owner.
    counters_.add(WorkerCounter::kBytesMoved, d.bytes);
  }
  fetch_slots_.release();
  if (span.active()) span.add_arg(obs::arg("bytes", d.bytes));
  span.finish();
  if (!lost) {
    counters_.add(WorkerCounter::kPeerFetches);
    counters_.add(WorkerCounter::kPeerFetchBytes, d.bytes);
    // Cache locally, as dask workers do (skip if we crashed mid-fetch:
    // the store of a dead worker stays empty).
    if (alive_) store_put(dep.key, d, /*cached=*/true);
  }
  flight->data = d;
  flight->done.set();
  // A fetch of the key from a newer owner may have replaced this flight.
  if (const auto it = inflight_.find(dep.key);
      it != inflight_.end() && it->second == flight)
    inflight_.erase(it);
  co_return d;
}

exec::Co<void> Worker::handle_get_data(WorkerMsg msg) {
  // Proxy plane: a still-unresolved handle is forwarded as-is over a
  // token-sized reply instead of materializing the payload here — the
  // requester pulls straight from the deposit, so the bytes cross the
  // wire once (origin -> requester), not twice through this owner.
  if (store_.find(msg.key) == store_.end()) {
    if (const auto it = proxy_.find(msg.key); it != proxy_.end()) {
      const ProxyHandle handle = it->second;
      co_await cluster_->transfer_token(node_, msg.requester_node,
                                        msg.key.size());
      if (alive_) {
        counters_.add(WorkerCounter::kBytesReferenced, handle.bytes);
        counters_.add(WorkerCounter::kProxyForwards);
      }
      msg.reply_data->send(alive_ ? make_proxy_data(handle) : make_lost_data());
      co_return;
    }
  }
  // Dying while the request waits, or mid-transfer, refuses the reply.
  const Data* ref = co_await local_ref(msg.key);
  if (ref == nullptr) {
    msg.reply_data->send(make_lost_data());
    co_return;
  }
  Data d = *ref;  // alias out of the store before suspending again
  const std::uint64_t b = std::max(d.bytes, kMinTransferBytes);
  co_await cluster_->transfer(node_, msg.requester_node, b);
  msg.reply_data->send(alive_ ? std::move(d) : make_lost_data());
}

exec::Co<void> Worker::fetch_one(std::shared_ptr<std::vector<Data>> inputs,
                                std::size_t i, DepLocation dep) {
  (*inputs)[i] = co_await fetch(dep);
}

exec::Co<void> Worker::handle_compute(TaskSpec spec,
                                     std::vector<DepLocation> deps,
                                     std::uint64_t cause) {
  // Fetch all dependencies concurrently (each a spawned coroutine, joined
  // below): request/transfer latencies overlap instead of summing, with
  // total in-flight fetches bounded by fetch_slots_. Results land in
  // dep-list order regardless of arrival order, so execution stays
  // deterministic.
  auto inputs = std::make_shared<std::vector<Data>>(deps.size());
  obs::CauseId fetch_cause = 0;
  if (!deps.empty()) {
    // The fetch phase is one causal node: caused by the assign, fed by a
    // dep edge per input (the scheduler supplies each dep's completion
    // id, so the edge set is identical on both substrates).
    obs::Span fetch_span = obs::trace_span(actor_, "fetch", spec.key);
    fetch_span.set_cause(cause, obs::EdgeKind::kAssign);
    fetch_cause = fetch_span.id();
    for (const DepLocation& d : deps)
      obs::trace_edge(d.cause, fetch_cause, obs::EdgeKind::kDep, actor_,
                      "fetch");
    std::vector<exec::Co<void>> fetches;
    fetches.reserve(deps.size());
    for (std::size_t i = 0; i < deps.size(); ++i)
      fetches.push_back(fetch_one(inputs, i, deps[i]));
    co_await exec::when_all(*engine_, std::move(fetches));
    // An owner refused a fetch (it crashed): give the attempt up without
    // reporting it. Recovery re-assigns the task once the scheduler
    // detects the death.
    for (const Data& in : *inputs)
      if (is_lost(in)) co_return;
  }
  if (!alive_) co_return;  // crashed while fetching inputs

  SchedMsg done(SchedMsgKind::kTaskFinished);
  done.key = spec.key;
  done.worker = id_;
  done.sender_node = node_;
  const double exec_start = engine_->now();
  obs::Span span = obs::trace_span(actor_, "execute", spec.key);
  if (fetch_cause != 0)
    span.set_cause(fetch_cause, obs::EdgeKind::kLocal);
  else
    span.set_cause(cause, obs::EdgeKind::kAssign);
  done.cause = span.id();
  try {
    if (spec.io) co_await spec.io();
    co_await cpu_.serve(spec.cost);
    if (!alive_) co_return;  // crashed mid-execution: drop the result
    Data out;
    if (spec.fn) {
      out = spec.fn(*inputs);
    } else {
      out = Data::sized(spec.out_bytes);
    }
    done.bytes = out.bytes;
    if (span.active()) span.add_arg(obs::arg("bytes", out.bytes));
    out.cause = done.cause;  // stored result carries the execute span
    store_put(std::move(spec.key), std::move(out));  // done.key copied above
  } catch (const std::exception& e) {
    done.erred = true;
    done.error = e.what();
    if (span.active()) span.add_arg(obs::arg("error", done.error));
  }
  span.finish();
  if (!alive_) co_return;  // crashed mid-execution: the result dies here
  counters_.add(WorkerCounter::kTasksExecuted);
  if (done.erred) counters_.add(WorkerCounter::kTasksErred);
  if (auto* m = obs::metrics())
    m->histogram("worker.execute_seconds").observe(engine_->now() - exec_start);
  co_await notify_scheduler(std::move(done), exec::Delivery::kIdempotent);
}

exec::Co<void> Worker::notify_scheduler(SchedMsg msg, exec::Delivery delivery) {
  DEISA_ASSERT(!shard_inboxes_.empty(), "worker not attached");
  // Keyed notifications go to the shard owning the key; keyless traffic
  // (heartbeats) stays on shard 0.
  const ShardMapper mapper{static_cast<int>(shard_inboxes_.size())};
  exec::Channel<SchedMsg>* target = shard_inboxes_[static_cast<std::size_t>(
      msg.key.empty() ? 0 : mapper.shard_of(msg.key))];
  const exec::SendResult res = co_await cluster_->send_control(
      node_, scheduler_node_, wire_bytes(msg), delivery);
  // Delivery is caller-side: enqueue 0, 1 or 2 copies as the fault hook
  // decided (0/2 only for droppable/idempotent traffic under injection).
  for (int i = 1; i < res.copies; ++i) target->send(msg);
  if (res.copies > 0) target->send(std::move(msg));
}

}  // namespace deisa::dts

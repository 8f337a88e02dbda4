#include "deisa/dts/client.hpp"

#include <algorithm>
#include <unordered_map>

namespace deisa::dts {

Client::Client(exec::Executor& engine, exec::Transport& cluster, int id, int node,
               int scheduler_node,
               std::vector<exec::Channel<SchedMsg>*> shard_inboxes,
               std::vector<WorkerRef> workers)
    : engine_(&engine),
      cluster_(&cluster),
      id_(id),
      node_(node),
      scheduler_node_(scheduler_node),
      shard_inboxes_(std::move(shard_inboxes)),
      mapper_{num_shards()},
      workers_(std::move(workers)) {
  DEISA_CHECK(!shard_inboxes_.empty(), "client needs a scheduler inbox");
}

exec::Co<void> Client::send_to_scheduler(SchedMsg msg, exec::Delivery delivery,
                                        int shard) {
  msg.sender_node = node_;
  msg.sender_client = id_;
  // All shards are co-located on scheduler_node_; routing only picks the
  // inbox.
  exec::Channel<SchedMsg>* target =
      shard_inboxes_[static_cast<std::size_t>(shard)];
  const exec::SendResult res = co_await cluster_->send_control(
      node_, scheduler_node_, wire_bytes(msg), delivery);
  // Fault injection decides delivery; the caller enqueues the copies
  // (0 = dropped, 2 = duplicated — only for non-reliable traffic).
  for (int i = 1; i < res.copies; ++i) target->send(msg);
  if (res.copies > 0) target->send(std::move(msg));
}

std::vector<SchedMsg> Client::slices(SchedMsgKind kind,
                                     std::uint64_t cause) const {
  std::vector<SchedMsg> out;
  out.reserve(shard_inboxes_.size());
  for (std::size_t s = 0; s < shard_inboxes_.size(); ++s) {
    out.emplace_back(kind);
    out.back().cause = cause;
  }
  return out;
}

exec::Co<void> Client::send_slices(std::vector<SchedMsg> slices) {
  for (std::size_t s = 0; s < slices.size(); ++s) {
    SchedMsg& m = slices[s];
    if (m.tasks.empty() && m.wants.empty() && m.sub_keys.empty() &&
        m.keys.empty())
      continue;
    co_await send_to_scheduler(std::move(m), exec::Delivery::kReliable,
                               static_cast<int>(s));
  }
}

exec::Co<void> Client::submit(std::vector<TaskSpec> tasks,
                             std::vector<Key> wants) {
  const auto n = static_cast<std::size_t>(num_shards());
  // Stamp the submission with the provenance of the last payload we saw:
  // per-step graphs triggered by queue tokens or gathered results chain
  // onto their trigger instead of starting a disconnected causal root.
  std::vector<SchedMsg> parts = slices(SchedMsgKind::kUpdateGraph, last_cause_);
  // One pass: place each task on the shard owning its key; every
  // dependency owned by a DIFFERENT shard needs the owner to forward its
  // completion, so a {dep, consumer shard, consumer-edge count}
  // subscription is piggybacked on the owner's slice. Deduped with a
  // per-dep consumer bitmask — layer-structured graphs make many
  // same-shard tasks share one remote dependency (the 64-shard cap is
  // enforced at ShardedScheduler construction). Repeat edges from the
  // same consumer shard bump the already-emitted count in place, so the
  // owner's refcount GC charges exactly one consumer per dependent edge
  // — the same rule the single scheduler applies at ingestion.
  struct SubEntry {
    std::uint64_t bits = 0;
    // (consumer shard, index into the owner slice's sub_counts) pairs
    // already emitted for this dep; a dep rarely spans many shards.
    std::vector<std::pair<int, std::size_t>> at;
  };
  std::unordered_map<Key, SubEntry> submask;
  submask.reserve(tasks.size());
  for (auto& part : parts) part.tasks.reserve(tasks.size() / n + 1);
  for (TaskSpec& t : tasks) {
    const int s = shard_of(t.key);
    for (const Key& dep : t.deps) {
      const int ds = shard_of(dep);
      if (ds == s) continue;
      SubEntry& entry = submask[dep];
      auto& owner = parts[static_cast<std::size_t>(ds)];
      const std::uint64_t bit = std::uint64_t{1} << s;
      if ((entry.bits & bit) != 0) {
        for (auto& [shard, idx] : entry.at)
          if (shard == s) {
            ++owner.sub_counts[idx];
            break;
          }
        continue;
      }
      entry.bits |= bit;
      entry.at.emplace_back(s, owner.sub_counts.size());
      owner.sub_keys.push_back(dep);
      owner.sub_shards.push_back(s);
      owner.sub_counts.push_back(1);
    }
    parts[static_cast<std::size_t>(s)].tasks.push_back(std::move(t));
  }
  for (Key& w : wants)
    parts[static_cast<std::size_t>(shard_of(w))].wants.push_back(std::move(w));
  co_await send_slices(std::move(parts));
}

exec::Co<std::vector<Future>> Client::external_futures(
    std::vector<Key> keys, std::vector<int> preferred_workers) {
  DEISA_CHECK(preferred_workers.empty() ||
                  preferred_workers.size() == keys.size(),
              "preferred_workers must be empty or parallel to keys");
  std::vector<Future> futures;
  futures.reserve(keys.size());
  for (const Key& k : keys) futures.emplace_back(k, this);
  std::vector<SchedMsg> parts = slices(SchedMsgKind::kCreateExternal);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    auto& part = parts[static_cast<std::size_t>(shard_of(keys[i]))];
    if (!preferred_workers.empty())
      part.preferred_workers.push_back(preferred_workers[i]);
    part.keys.push_back(std::move(keys[i]));
  }
  co_await send_slices(std::move(parts));
  co_return futures;
}

exec::Co<void> Client::push(std::vector<std::pair<Key, Data>> items,
                           int worker, std::uint64_t cause) {
  DEISA_CHECK(worker >= 0 && static_cast<std::size_t>(worker) < workers_.size(),
              "scatter to unknown worker " << worker);
  const WorkerRef& ref = workers_[static_cast<std::size_t>(worker)];
  WorkerMsg msg(WorkerMsgKind::kReceiveData);
  msg.cause = cause;
  if (plane_ == DataPlane::kProxy && depot_ != nullptr) {
    // Proxy plane: every payload stays in the sender's depot and one
    // coalesced frame of ownership tokens crosses the wire. Bytes move
    // lazily, on the worker's first dereference.
    std::size_t key_bytes = 0;
    for (auto& [key, data] : items) {
      key_bytes += key.size();
      const ProxyHandle handle(node_, data.bytes,
                               cause != 0 ? cause : data.cause);
      counters_.add(ClientCounter::kBytesReferenced, data.bytes);
      depot_->deposit(key, std::move(data));
      data = make_proxy_data(handle);
    }
    co_await cluster_->send_control(
        node_, ref.node,
        items.size() * exec::Transport::kTokenBytes + key_bytes);
  } else {
    // Copy plane: one bulk transfer for the whole batch — the payloads
    // share a single wire frame instead of paying the per-message floor
    // each.
    std::uint64_t total = 0;
    for (const auto& [key, data] : items) total += data.bytes;
    co_await cluster_->transfer(node_, ref.node,
                                std::max(total, kMinTransferBytes));
    counters_.add(ClientCounter::kBytesMoved, total);
  }
  msg.batch = std::move(items);
  ref.inbox->send(std::move(msg));
}

exec::Co<int> Client::scatter(Key key, Data data, int worker, bool external,
                             bool inform_scheduler, std::uint64_t cause) {
  const std::uint64_t payload_bytes = data.bytes;
  // 1) Bulk payload (or its token) straight to the worker ...
  std::vector<std::pair<Key, Data>> items;
  items.emplace_back(key, std::move(data));
  co_await push(std::move(items), worker, cause);
  if (!inform_scheduler) co_return worker;
  // 2) ... and the metadata registration to the scheduler — a
  // synchronous RPC, as dask's scatter is: wait for the acknowledgement.
  // A single key keeps the one-key registration: it prices the key
  // alone on the wire and its Ack carries the cause that chains the
  // client's next step.
  auto ack = std::make_shared<exec::Channel<Ack>>(*engine_);
  SchedMsg reg(SchedMsgKind::kUpdateData);
  reg.cause = cause;
  reg.key = std::move(key);
  reg.worker = worker;
  reg.bytes = payload_bytes;
  reg.external = external;
  reg.reply_worker = ack;
  reg.notify = notify_;
  const int shard = shard_of(reg.key);
  co_await send_to_scheduler(std::move(reg), exec::Delivery::kReliable, shard);
  const Ack a = co_await ack->recv();
  // The synchronous registration gates whatever this client does next
  // (DEISA1: the next timestep's push) — remember it as provenance.
  if (a.cause != 0) last_cause_ = a.cause;
  co_return a.code;
}

exec::Co<std::vector<int>> Client::scatter_batch(
    std::vector<std::pair<Key, Data>> items, int worker, bool external,
    std::uint64_t cause) {
  if (items.empty()) co_return std::vector<int>();
  // Split the registration per owner shard before the push consumes the
  // items; positions[s] maps shard s's acks back to item order.
  std::vector<SchedMsg> parts = slices(SchedMsgKind::kUpdateData, cause);
  std::vector<std::vector<std::size_t>> positions(parts.size());
  std::vector<std::shared_ptr<exec::Channel<std::vector<int>>>> acks(
      parts.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto s = static_cast<std::size_t>(shard_of(items[i].first));
    SchedMsg& part = parts[s];
    if (!acks[s]) {
      acks[s] = std::make_shared<exec::Channel<std::vector<int>>>(*engine_);
      part.reply_acks = acks[s];
      part.notify = notify_;
      part.worker = worker;
      part.external = external;
    }
    positions[s].push_back(i);
    part.keys.push_back(items[i].first);
    part.sizes.push_back(items[i].second.bytes);
  }
  std::vector<int> out(items.size(), 0);
  // 1) One push for the whole batch ...
  co_await push(std::move(items), worker, cause);
  // 2) ... and one batched registration RPC per owner shard. All the
  // sends go out before any ack is awaited so the shards register
  // concurrently.
  co_await send_slices(std::move(parts));
  for (std::size_t s = 0; s < acks.size(); ++s) {
    if (!acks[s]) continue;
    const std::vector<int> got = co_await acks[s]->recv();
    DEISA_ASSERT(got.size() == positions[s].size(), "shard ack count mismatch");
    for (std::size_t j = 0; j < got.size(); ++j) out[positions[s][j]] = got[j];
  }
  co_return out;
}

exec::Co<RepushList> Client::repush_keys() {
  // Re-armed keys live in the repush buffer of the shard that OWNS each
  // key, so the drain must fan out over every shard and merge — querying
  // only shard 0 would leave assignments on other shards to expire.
  RepushList merged;
  for (int s = 0; s < num_shards(); ++s) {
    auto reply = std::make_shared<exec::Channel<RepushList>>(*engine_);
    SchedMsg msg(SchedMsgKind::kRepushKeys);
    msg.reply_repush = reply;
    co_await send_to_scheduler(std::move(msg), exec::Delivery::kReliable, s);
    RepushList part = co_await reply->recv();
    if (merged.empty())
      merged = std::move(part);
    else
      merged.insert(merged.end(), std::make_move_iterator(part.begin()),
                    std::make_move_iterator(part.end()));
  }
  co_return merged;
}

exec::Co<int> Client::wait_key(const Key& key) {
  auto reply = std::make_shared<exec::Channel<Ack>>(*engine_);
  SchedMsg msg(SchedMsgKind::kWaitKey);
  msg.key = key;
  msg.reply_worker = reply;
  co_await send_to_scheduler(std::move(msg), exec::Delivery::kReliable,
                             shard_of(key));
  const Ack ack = co_await reply->recv();
  DEISA_CHECK(ack.code != -2, "task erred: " << key);
  // The wait observed a completion: whatever this client does next
  // (submit the following batch, gather) was enabled by it.
  if (ack.cause != 0) last_cause_ = ack.cause;
  co_return ack.code;
}

exec::Co<Data> Client::gather(const Key& key) {
  const int worker = co_await wait_key(key);
  const WorkerRef& ref = workers_[static_cast<std::size_t>(worker)];
  auto reply = std::make_shared<exec::Channel<Data>>(*engine_);
  co_await cluster_->send_control(node_, ref.node,
                                  kControlMsgBase + key.size());
  WorkerMsg req(WorkerMsgKind::kGetData);
  req.key = key;
  req.requester_node = node_;
  req.reply_data = reply;
  ref.inbox->send(std::move(req));
  Data d = co_await reply->recv();
  DEISA_CHECK(!is_lost(d), "gather of '" << key << "': worker " << worker
                                           << " was lost");
  if (d.cause != 0) last_cause_ = d.cause;
  if (const ProxyHandle* h = as_proxy(d)) {
    // The owner forwarded an unresolved handle instead of materializing
    // the payload on our behalf: pull it straight from the depot origin.
    const ProxyHandle handle = *h;
    const std::uint64_t push_cause = d.cause;
    const PulledDeposit pulled =
        co_await pull_deposit(*cluster_, depot_, key, handle, node_);
    counters_.add(pulled.moved ? ClientCounter::kBytesMoved
                               : ClientCounter::kBytesReferenced,
                  handle.bytes);
    d = pulled.data;
    if (push_cause != 0) d.cause = push_cause;
  }
  co_return d;
}

exec::Co<void> Client::variable_set(const std::string& name, Data value) {
  SchedMsg msg(SchedMsgKind::kVariableSet);
  msg.name = name;
  msg.payload = std::move(value);
  // Variables/queues are name-keyed state: both ends of an exchange hash
  // the name to the same owning shard.
  co_await send_to_scheduler(std::move(msg), exec::Delivery::kReliable,
                             shard_of(name));
}

exec::Co<Data> Client::variable_get(const std::string& name) {
  auto reply = std::make_shared<exec::Channel<Data>>(*engine_);
  SchedMsg msg(SchedMsgKind::kVariableGet);
  msg.name = name;
  msg.reply_data = reply;
  co_await send_to_scheduler(std::move(msg), exec::Delivery::kReliable,
                             shard_of(name));
  Data d = co_await reply->recv();
  if (d.cause != 0) last_cause_ = d.cause;
  co_return d;
}

exec::Co<void> Client::queue_put(const std::string& name, Data value) {
  auto ack = std::make_shared<exec::Channel<Ack>>(*engine_);
  SchedMsg msg(SchedMsgKind::kQueuePut);
  msg.name = name;
  msg.payload = std::move(value);
  msg.reply_worker = ack;  // Queue.put is synchronous in dask
  co_await send_to_scheduler(std::move(msg), exec::Delivery::kReliable,
                             shard_of(name));
  (void)co_await ack->recv();
}

exec::Co<Data> Client::queue_get(const std::string& name) {
  auto reply = std::make_shared<exec::Channel<Data>>(*engine_);
  SchedMsg msg(SchedMsgKind::kQueueGet);
  msg.name = name;
  msg.reply_data = reply;
  co_await send_to_scheduler(std::move(msg), exec::Delivery::kReliable,
                             shard_of(name));
  Data d = co_await reply->recv();
  if (d.cause != 0) last_cause_ = d.cause;
  co_return d;
}

exec::Co<void> Client::run_heartbeats(double interval, exec::Event& stop) {
  if (interval <= 0.0) co_return;  // the paper's "infinite interval"
  while (!stop.is_set()) {
    co_await engine_->delay(interval);
    if (stop.is_set()) co_return;
    SchedMsg hb(SchedMsgKind::kHeartbeatBridge);
    hb.worker = id_;
    co_await send_to_scheduler(std::move(hb), exec::Delivery::kDroppable);
  }
}

exec::Co<void> Client::cancel(const Key& key) {
  auto ack = std::make_shared<exec::Channel<Ack>>(*engine_);
  SchedMsg msg(SchedMsgKind::kCancelKey);
  msg.key = key;
  msg.reply_worker = ack;
  co_await send_to_scheduler(std::move(msg), exec::Delivery::kReliable,
                             shard_of(key));
  (void)co_await ack->recv();
}

}  // namespace deisa::dts

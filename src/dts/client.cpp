#include "deisa/dts/client.hpp"

#include <algorithm>
#include <unordered_map>

#include "deisa/dts/shard.hpp"

namespace deisa::dts {

Client::Client(exec::Executor& engine, exec::Transport& cluster, int id, int node,
               int scheduler_node, exec::Channel<SchedMsg>* scheduler_inbox,
               std::vector<WorkerRef> workers)
    : engine_(&engine),
      cluster_(&cluster),
      id_(id),
      node_(node),
      scheduler_node_(scheduler_node),
      scheduler_inbox_(scheduler_inbox),
      workers_(std::move(workers)) {}

exec::Co<void> Client::send_to_scheduler(SchedMsg msg, exec::Delivery delivery,
                                        int shard) {
  msg.sender_node = node_;
  msg.sender_client = id_;
  // All shards are co-located on scheduler_node_; routing only picks the
  // inbox. Dead branch at shards == 1 (the table is empty).
  exec::Channel<SchedMsg>* target =
      shard_inboxes_.empty() ? scheduler_inbox_
                             : shard_inboxes_.at(static_cast<std::size_t>(shard));
  const exec::SendResult res = co_await cluster_->send_control(
      node_, scheduler_node_, wire_bytes(msg), delivery);
  // Fault injection decides delivery; the caller enqueues the copies
  // (0 = dropped, 2 = duplicated — only for non-reliable traffic).
  for (int i = 1; i < res.copies; ++i) target->send(msg);
  if (res.copies > 0) target->send(std::move(msg));
}

int Client::shard_of(std::string_view key) const {
  if (shard_inboxes_.size() <= 1) return 0;
  const ShardMapper mapper{static_cast<int>(shard_inboxes_.size())};
  return mapper.shard_of(key);
}

exec::Co<void> Client::submit(std::vector<TaskSpec> tasks,
                             std::vector<Key> wants) {
  if (shard_inboxes_.size() > 1) {
    co_await submit_sharded(std::move(tasks), std::move(wants));
    co_return;
  }
  SchedMsg msg(SchedMsgKind::kUpdateGraph);
  // Stamp the submission with the provenance of the last payload we saw:
  // per-step graphs triggered by queue tokens or gathered results chain
  // onto their trigger instead of starting a disconnected causal root.
  msg.cause = last_cause_;
  msg.tasks = std::move(tasks);
  msg.wants = std::move(wants);
  co_await send_to_scheduler(std::move(msg));
}

exec::Co<void> Client::submit_sharded(std::vector<TaskSpec> tasks,
                                     std::vector<Key> wants) {
  const int n = static_cast<int>(shard_inboxes_.size());
  std::vector<SchedMsg> slices;
  slices.reserve(static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s) {
    slices.emplace_back(SchedMsgKind::kUpdateGraph);
    slices.back().cause = last_cause_;
  }
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
  for (auto& slice : slices)
    slice.tasks.reserve(tasks.size() / static_cast<std::size_t>(n) + 1);
  for (TaskSpec& t : tasks) {
    const int s = shard_of(t.key);
    for (const Key& dep : t.deps) {
      const int ds = shard_of(dep);
      if (ds == s) continue;
      SubEntry& entry = submask[dep];
      auto& owner = slices[static_cast<std::size_t>(ds)];
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
    slices[static_cast<std::size_t>(s)].tasks.push_back(std::move(t));
  }
  for (Key& w : wants) {
    const int s = shard_of(w);
    slices[static_cast<std::size_t>(s)].wants.push_back(std::move(w));
  }
  for (int s = 0; s < n; ++s) {
    SchedMsg& m = slices[static_cast<std::size_t>(s)];
    if (m.tasks.empty() && m.wants.empty() && m.sub_keys.empty()) continue;
    co_await send_to_scheduler(std::move(m), exec::Delivery::kReliable, s);
  }
}

exec::Co<std::vector<Future>> Client::external_futures(
    std::vector<Key> keys, std::vector<int> preferred_workers) {
  std::vector<Future> futures;
  futures.reserve(keys.size());
  for (const Key& k : keys) futures.emplace_back(k, this);
  if (shard_inboxes_.size() > 1) {
    DEISA_CHECK(preferred_workers.empty() ||
                    preferred_workers.size() == keys.size(),
                "preferred_workers must be empty or parallel to keys");
    const int n = static_cast<int>(shard_inboxes_.size());
    std::vector<SchedMsg> slices;
    slices.reserve(static_cast<std::size_t>(n));
    for (int s = 0; s < n; ++s)
      slices.emplace_back(SchedMsgKind::kCreateExternal);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      auto& slice = slices[static_cast<std::size_t>(shard_of(keys[i]))];
      if (!preferred_workers.empty())
        slice.preferred_workers.push_back(preferred_workers[i]);
      slice.keys.push_back(std::move(keys[i]));
    }
    for (int s = 0; s < n; ++s) {
      if (slices[static_cast<std::size_t>(s)].keys.empty()) continue;
      co_await send_to_scheduler(
          std::move(slices[static_cast<std::size_t>(s)]),
          exec::Delivery::kReliable, s);
    }
    co_return futures;
  }
  SchedMsg msg(SchedMsgKind::kCreateExternal);
  msg.keys = std::move(keys);
  msg.preferred_workers = std::move(preferred_workers);
  co_await send_to_scheduler(std::move(msg));
  co_return futures;
}

exec::Co<int> Client::scatter(Key key, Data data, int worker, bool external,
                             bool inform_scheduler, std::uint64_t cause) {
  DEISA_CHECK(worker >= 0 && static_cast<std::size_t>(worker) < workers_.size(),
              "scatter to unknown worker " << worker);
  const WorkerRef& ref = workers_[static_cast<std::size_t>(worker)];
  const std::uint64_t payload_bytes = data.bytes;
  if (plane_ == DataPlane::kProxy && depot_ != nullptr) {
    // 1) Proxy plane: the payload stays in the sender's depot; only a
    // token-sized ownership handle crosses the wire. Bytes move lazily,
    // on the worker's first dereference.
    ProxyHandle handle(node_, payload_bytes,
                       cause != 0 ? cause : data.cause);
    depot_->deposit(key, std::move(data), node_);
    counters_.add(ClientCounter::kBytesReferenced, payload_bytes);
    co_await cluster_->transfer_token(node_, ref.node, key.size());
    WorkerMsg push(WorkerMsgKind::kReceiveData);
    push.cause = cause;
    push.key = key;
    push.payload = make_proxy_data(handle);
    ref.inbox->send(std::move(push));
  } else {
    // 1) Copy plane: bulk payload straight to the worker ...
    const std::uint64_t bytes = std::max(payload_bytes, kMinTransferBytes);
    co_await cluster_->transfer(node_, ref.node, bytes);
    counters_.add(ClientCounter::kBytesMoved, payload_bytes);
    WorkerMsg push(WorkerMsgKind::kReceiveData);
    push.cause = cause;
    push.key = key;
    push.payload = std::move(data);
    ref.inbox->send(std::move(push));
  }
  // 2) ... and the metadata registration to the scheduler — a
  // synchronous RPC, as dask's scatter is: wait for the acknowledgement.
  if (inform_scheduler) {
    auto ack = std::make_shared<exec::Channel<Ack>>(*engine_);
    SchedMsg reg(SchedMsgKind::kUpdateData);
    reg.cause = cause;
    reg.key = std::move(key);  // last use; the worker push copied above
    reg.worker = worker;
    reg.bytes = payload_bytes;
    reg.external = external;
    reg.reply_worker = ack;
    reg.notify = notify_;
    const int shard = shard_of(reg.key);
    co_await send_to_scheduler(std::move(reg), exec::Delivery::kReliable,
                               shard);
    const Ack a = co_await ack->recv();
    // The synchronous registration gates whatever this client does next
    // (DEISA1: the next timestep's push) — remember it as provenance.
    if (a.cause != 0) last_cause_ = a.cause;
    co_return a.code;
  }
  co_return worker;
}

exec::Co<std::vector<int>> Client::scatter_batch(
    std::vector<std::pair<Key, Data>> items, int worker, bool external,
    std::uint64_t cause) {
  if (items.empty()) co_return std::vector<int>();
  DEISA_CHECK(worker >= 0 && static_cast<std::size_t>(worker) < workers_.size(),
              "scatter to unknown worker " << worker);
  const WorkerRef& ref = workers_[static_cast<std::size_t>(worker)];
  std::uint64_t total = 0;
  for (const auto& [key, data] : items) total += data.bytes;
  SchedMsg reg(SchedMsgKind::kUpdateData);
  reg.cause = cause;
  reg.worker = worker;
  reg.external = external;
  for (const auto& [key, data] : items) {
    reg.keys.push_back(key);
    reg.sizes.push_back(data.bytes);
  }
  if (plane_ == DataPlane::kProxy && depot_ != nullptr) {
    // 1) Proxy plane: deposit every payload locally and push one coalesced
    // frame of ownership tokens — the wire carries handles, not blocks.
    std::size_t key_bytes = 0;
    std::vector<std::pair<Key, Data>> tokens;
    tokens.reserve(items.size());
    for (auto& [key, data] : items) {
      key_bytes += key.size();
      ProxyHandle handle(node_, data.bytes,
                         cause != 0 ? cause : data.cause);
      counters_.add(ClientCounter::kBytesReferenced, data.bytes);
      depot_->deposit(key, std::move(data), node_);
      tokens.emplace_back(std::move(key), make_proxy_data(handle));
    }
    co_await cluster_->send_control(
        node_, ref.node,
        items.size() * exec::Transport::kTokenBytes + key_bytes);
    WorkerMsg push(WorkerMsgKind::kReceiveDataBatch);
    push.cause = cause;
    push.batch = std::move(tokens);
    ref.inbox->send(std::move(push));
  } else {
    // 1) Copy plane: one bulk transfer for the whole batch — the payloads
    // share a single wire frame instead of paying the per-message floor
    // each.
    co_await cluster_->transfer(node_, ref.node,
                                std::max(total, kMinTransferBytes));
    counters_.add(ClientCounter::kBytesMoved, total);
    WorkerMsg push(WorkerMsgKind::kReceiveDataBatch);
    push.cause = cause;
    push.batch = std::move(items);
    ref.inbox->send(std::move(push));
  }
  if (shard_inboxes_.size() > 1)
    co_return co_await register_batch_sharded(std::move(reg));
  // 2) One batched registration RPC; per-key acks come back together.
  auto acks = std::make_shared<exec::Channel<std::vector<int>>>(*engine_);
  reg.reply_acks = acks;
  reg.notify = notify_;
  co_await send_to_scheduler(std::move(reg));
  co_return co_await acks->recv();
}

exec::Co<std::vector<int>> Client::register_batch_sharded(SchedMsg reg) {
  // 2') Sharded: one batched registration RPC per owner shard. All the
  // sends go out before any ack is awaited so the shards register
  // concurrently; acks are reassembled into item order.
  const int n = static_cast<int>(shard_inboxes_.size());
  std::vector<SchedMsg> slices;
  std::vector<std::shared_ptr<exec::Channel<std::vector<int>>>> acks(
      static_cast<std::size_t>(n));
  std::vector<std::vector<std::size_t>> positions(static_cast<std::size_t>(n));
  slices.reserve(static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s) {
    slices.emplace_back(SchedMsgKind::kUpdateData);
    slices.back().cause = reg.cause;
    slices.back().worker = reg.worker;
    slices.back().external = reg.external;
  }
  for (std::size_t i = 0; i < reg.keys.size(); ++i) {
    const auto s = static_cast<std::size_t>(shard_of(reg.keys[i]));
    positions[s].push_back(i);
    slices[s].keys.push_back(std::move(reg.keys[i]));
    slices[s].sizes.push_back(reg.sizes[i]);
  }
  for (int s = 0; s < n; ++s) {
    auto& slice = slices[static_cast<std::size_t>(s)];
    if (slice.keys.empty()) continue;
    acks[static_cast<std::size_t>(s)] =
        std::make_shared<exec::Channel<std::vector<int>>>(*engine_);
    slice.reply_acks = acks[static_cast<std::size_t>(s)];
    slice.notify = notify_;
    co_await send_to_scheduler(std::move(slice), exec::Delivery::kReliable, s);
  }
  std::vector<int> out(reg.keys.size(), 0);
  for (int s = 0; s < n; ++s) {
    if (!acks[static_cast<std::size_t>(s)]) continue;
    const std::vector<int> got =
        co_await acks[static_cast<std::size_t>(s)]->recv();
    const auto& pos = positions[static_cast<std::size_t>(s)];
    DEISA_ASSERT(got.size() == pos.size(), "shard ack count mismatch");
    for (std::size_t j = 0; j < got.size(); ++j) out[pos[j]] = got[j];
  }
  co_return out;
}

exec::Co<RepushList> Client::repush_keys() {
  // Re-armed keys live in the repush buffer of the shard that OWNS each
  // key, so the drain must fan out over every shard and merge — querying
  // only shard 0 would leave assignments on other shards to expire.
  const int n = std::max<int>(1, static_cast<int>(shard_inboxes_.size()));
  RepushList merged;
  for (int s = 0; s < n; ++s) {
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
  if (d.cause != 0) last_cause_ = d.cause;
  if (const ProxyHandle* h = as_proxy(d)) {
    // The owner forwarded an unresolved handle instead of materializing
    // the payload on our behalf: pull it straight from the depot origin.
    const ProxyHandle handle = *h;
    const std::uint64_t push_cause = d.cause;
    if (handle.location != node_) {
      co_await cluster_->transfer(handle.location, node_,
                                  std::max(handle.bytes, kMinTransferBytes));
      counters_.add(ClientCounter::kBytesMoved, handle.bytes);
    } else {
      counters_.add(ClientCounter::kBytesReferenced, handle.bytes);
    }
    Data real;
    DEISA_CHECK(depot_ != nullptr && depot_->fetch(key, real),
                "gathered proxy deposit missing for '" << key << "'");
    if (push_cause != 0) real.cause = push_cause;
    d = std::move(real);
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

exec::Co<void> Client::send_shutdown() {
  const int n = std::max<int>(1, static_cast<int>(shard_inboxes_.size()));
  for (int s = 0; s < n; ++s) {
    SchedMsg msg(SchedMsgKind::kShutdown);
    co_await send_to_scheduler(std::move(msg), exec::Delivery::kReliable, s);
  }
}

}  // namespace deisa::dts

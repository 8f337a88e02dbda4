// Shared payload depot backing the proxy data plane. Producers deposit
// payloads once (keyed by dts::Key) and circulate ProxyHandle tokens;
// consumers pull a copy on first dereference — a shared_ptr alias on the
// sim substrate, a shared-scratch read on the threaded substrate (both
// substrates share one address space, so a depot pull only pays modeled
// transfer time when the handle's origin is a different node).
//
// A deposit moves at most once per dereferencing node, from its origin,
// when first dereferenced (ProxyStore's rule); pull_deposit() below is
// the one place that applies it.
//
// Lifetime: a deposit stays resident until the refcount GC releases the
// key (the owner worker's kReleaseKey handling erases the depot entry),
// so any number of consumers can pull the same deposit. Mutex-protected
// because the threaded substrate dereferences from real worker threads.
#pragma once

#include <mutex>
#include <unordered_map>

#include "deisa/dts/messages.hpp"
#include "deisa/dts/task.hpp"
#include "deisa/exec/transport.hpp"

namespace deisa::dts {

/// One depot per runtime (shared by all clients and workers on the
/// proxy plane). Tracks resident and peak bytes so the harness can
/// prove bounded memory under the refcount GC.
class ProxyDepot {
public:
  /// Stores `data` under `key` (the depositing node travels in the
  /// ProxyHandle). A re-deposit (e.g. a fault-recovery re-push)
  /// overwrites the old entry.
  void deposit(const Key& key, Data data) {
    std::lock_guard<std::mutex> lk(mu_);
    auto [it, inserted] = entries_.try_emplace(key);
    if (!inserted) resident_bytes_ -= it->second.bytes;
    resident_bytes_ += data.bytes;
    if (resident_bytes_ > peak_bytes_) peak_bytes_ = resident_bytes_;
    it->second = std::move(data);
  }

  /// Copies the deposit out (cheap: Data is a shared_ptr alias). Returns
  /// false if the key is not resident — the caller raced a release,
  /// which the scheduler-side refcount plane is supposed to prevent.
  bool fetch(const Key& key, Data& out) const {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) return false;
    out = it->second;
    return true;
  }

  bool contains(const Key& key) const {
    std::lock_guard<std::mutex> lk(mu_);
    return entries_.count(key) != 0;
  }

  /// Drops the deposit (refcount GC release). Returns the freed bytes.
  std::uint64_t erase(const Key& key) {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) return 0;
    const std::uint64_t freed = it->second.bytes;
    resident_bytes_ -= freed;
    entries_.erase(it);
    return freed;
  }

  std::uint64_t resident_bytes() const {
    std::lock_guard<std::mutex> lk(mu_);
    return resident_bytes_;
  }
  std::uint64_t peak_bytes() const {
    std::lock_guard<std::mutex> lk(mu_);
    return peak_bytes_;
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return entries_.size();
  }

private:
  mutable std::mutex mu_;
  std::unordered_map<Key, Data> entries_;
  std::uint64_t resident_bytes_ = 0;
  std::uint64_t peak_bytes_ = 0;
};

/// A dereferenced deposit, and whether its bytes crossed the wire
/// (bytes_moved) or were aliased on the same node (bytes_referenced).
struct PulledDeposit {
  PulledDeposit(Data data_, bool moved_)
      : data(std::move(data_)), moved(moved_) {}
  Data data;
  bool moved;
};

/// Dereference `handle` (the token for `key`) on `node`: a modeled
/// transfer from the origin when it is another node, a zero-copy alias
/// of the deposit otherwise. The caller keeps its own counters.
inline exec::Co<PulledDeposit> pull_deposit(exec::Transport& cluster,
                                            const ProxyDepot* depot,
                                            const Key& key,
                                            const ProxyHandle& handle,
                                            int node) {
  const bool moved = handle.location != node;
  if (moved)
    co_await cluster.transfer(handle.location, node,
                              std::max(handle.bytes, kMinTransferBytes));
  Data d;
  const bool deposited = depot != nullptr && depot->fetch(key, d);
  DEISA_CHECK(deposited, "proxy deposit missing for '"
                             << key << "' (released before its last consumer?)");
  co_return PulledDeposit(std::move(d), moved);
}

}  // namespace deisa::dts

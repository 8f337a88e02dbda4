// Mini-MPI over the discrete-event cluster: ranks are coroutines, point-
// to-point messages match on (source, tag) with wildcards, and the
// barrier of the Heat2D miniapp is a dissemination barrier over point-to-
// point messages — so its cost scales with log2(P) and with the switch
// distance of the allocation, as on a real machine.
#pragma once

#include <any>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <vector>

#include <mutex>

#include "deisa/exec/executor.hpp"
#include "deisa/exec/primitives.hpp"
#include "deisa/exec/transport.hpp"

namespace deisa::mpix {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

// NOTE: Message is deliberately NOT an aggregate. GCC 12 miscompiles
// by-value aggregate prvalue arguments to co_awaited coroutines (the
// materialized temporary and the coroutine-frame parameter copy end up
// sharing non-trivial members, causing use-after-free). A user-provided
// constructor forces the correct copy/move path. Do not remove it.
struct Message {
  Message() = default;
  Message(int source_, int tag_, std::uint64_t bytes_, std::any payload_ = {})
      : source(source_),
        tag(tag_),
        bytes(bytes_),
        payload(std::move(payload_)) {}

  int source = 0;
  int tag = 0;
  std::uint64_t bytes = 0;
  std::any payload;  // empty in synthetic (size-only) mode

  template <typename T>
  const T& as() const {
    const T* p = std::any_cast<T>(&payload);
    DEISA_CHECK(p != nullptr, "message payload type mismatch (tag=" << tag
                                                                    << ")");
    return *p;
  }
};

/// Communicator over a set of ranks placed on cluster nodes.
class Comm {
public:
  /// `rank_to_node[r]` is the physical cluster node hosting rank r.
  Comm(exec::Transport& cluster, std::vector<int> rank_to_node);

  int size() const { return static_cast<int>(rank_to_node_.size()); }
  int node_of(int rank) const;
  exec::Executor& engine() { return cluster_->executor(); }
  exec::Transport& cluster() { return *cluster_; }

  /// Blocking (rendezvous-free, eager) send: completes when the payload
  /// has fully landed in the destination mailbox.
  exec::Co<void> send(int from, int to, int tag, Message msg);

  template <typename T>
  exec::Co<void> send_value(int from, int to, int tag, T value,
                           std::uint64_t bytes = 0) {
    Message m;
    m.tag = tag;
    m.bytes = bytes != 0 ? bytes : sizeof(T);
    m.payload = std::move(value);
    return send(from, to, tag, std::move(m));
  }

  /// Blocking receive matching (source, tag); wildcards allowed.
  exec::Co<Message> recv(int rank, int source = kAnySource, int tag = kAnyTag);

  // ---- collectives (every rank of the comm must call, in order) ----
  exec::Co<void> barrier(int rank);

private:
  struct Waiter {
    int source;
    int tag;
    exec::ResumeToken token{};
    Message result{};
    bool delivered = false;
  };

  struct Mailbox {
    std::deque<Message> pending;
    std::list<Waiter*> waiters;
  };

  static bool matches(const Waiter& w, const Message& m) {
    return (w.source == kAnySource || w.source == m.source) &&
           (w.tag == kAnyTag || w.tag == m.tag);
  }

  void deliver(int to, Message msg);
  int next_collective_tag(int rank, int op_id);


  exec::Transport* cluster_;
  std::vector<int> rank_to_node_;
  // Guards mailboxes (pending queues + waiter lists): deliver() runs on
  // the sender's strand, recv() on the receiver's.
  std::mutex mu_;
  std::vector<Mailbox> mailboxes_;
  // Per-rank sequence, only ever touched by that rank's own collective
  // calls (one strand), so it needs no lock.
  std::vector<std::uint32_t> collective_seq_;
};

}  // namespace deisa::mpix

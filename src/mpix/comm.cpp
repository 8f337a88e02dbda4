#include "deisa/mpix/comm.hpp"

#include <algorithm>
#include <mutex>

namespace deisa::mpix {

namespace {
// Collective tags live far above any user tag.
constexpr int kCollectiveTagBase = 1 << 20;
constexpr int kOpBarrier = 0;
constexpr int kOpSlots = 8;
// Dissemination barrier rounds get their own sub-slot per round.
constexpr int kRoundStride = kOpSlots * 64;
}  // namespace

Comm::Comm(exec::Transport& cluster, std::vector<int> rank_to_node)
    : cluster_(&cluster), rank_to_node_(std::move(rank_to_node)) {
  DEISA_CHECK(!rank_to_node_.empty(), "communicator needs at least one rank");
  mailboxes_.resize(rank_to_node_.size());
  collective_seq_.assign(rank_to_node_.size(), 0);
}

int Comm::node_of(int rank) const {
  DEISA_CHECK(rank >= 0 && rank < size(), "rank " << rank << " out of range");
  return rank_to_node_[static_cast<std::size_t>(rank)];
}

void Comm::deliver(int to, Message msg) {
  exec::ResumeToken token{};
  {
    std::lock_guard lk(mu_);
    Mailbox& mb = mailboxes_[static_cast<std::size_t>(to)];
    for (auto it = mb.waiters.begin(); it != mb.waiters.end(); ++it) {
      Waiter* w = *it;
      if (matches(*w, msg)) {
        w->result = std::move(msg);
        w->delivered = true;
        token = w->token;
        mb.waiters.erase(it);
        break;
      }
    }
    if (!token) {
      mb.pending.push_back(std::move(msg));
      return;
    }
  }
  exec::Executor& ex = cluster_->executor();
  ex.post(token, ex.now());
}

exec::Co<void> Comm::send(int from, int to, int tag, Message msg) {
  DEISA_CHECK(to >= 0 && to < size(), "send to invalid rank " << to);
  msg.source = from;
  msg.tag = tag;
  const std::uint64_t wire_bytes = std::max<std::uint64_t>(msg.bytes, 64);
  co_await cluster_->transfer(node_of(from), node_of(to), wire_bytes);
  deliver(to, std::move(msg));
}

exec::Co<Message> Comm::recv(int rank, int source, int tag) {
  Waiter waiter{source, tag, {}, {}, false};
  // The pending-queue scan happens inside await_suspend, under the
  // mailbox lock and atomically with waiter registration, so a message
  // delivered from another strand can neither be missed nor double-
  // matched. Returning false continues synchronously (no engine event),
  // which is exactly the old scan-before-suspend fast path.
  struct Awaiter {
    Comm& comm;
    int rank;
    Waiter& w;
    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> h) {
      std::lock_guard lk(comm.mu_);
      Mailbox& mb = comm.mailboxes_[static_cast<std::size_t>(rank)];
      for (auto it = mb.pending.begin(); it != mb.pending.end(); ++it) {
        if ((w.source == kAnySource || w.source == it->source) &&
            (w.tag == kAnyTag || w.tag == it->tag)) {
          w.result = std::move(*it);
          w.delivered = true;
          mb.pending.erase(it);
          return false;
        }
      }
      w.token = comm.cluster_->executor().capture(h);
      mb.waiters.push_back(&w);
      return true;
    }
    void await_resume() const noexcept {}
  };
  co_await Awaiter{*this, rank, waiter};
  DEISA_ASSERT(waiter.delivered, "recv resumed without a message");
  co_return std::move(waiter.result);
}

int Comm::next_collective_tag(int rank, int op_id) {
  const std::uint32_t seq = collective_seq_[static_cast<std::size_t>(rank)]++;
  return kCollectiveTagBase + static_cast<int>(seq) * kRoundStride + op_id;
}

exec::Co<void> Comm::barrier(int rank) {
  const int base = next_collective_tag(rank, kOpBarrier);
  const int p = size();
  // Dissemination barrier: log2(P) rounds of pairwise signals.
  int round = 0;
  for (int dist = 1; dist < p; dist <<= 1, ++round) {
    const int to = (rank + dist) % p;
    const int from = (rank - dist % p + p) % p;
    const int tag = base + kOpSlots * (round + 1);
    Message signal(rank, tag, 8);
    co_await send(rank, to, tag, std::move(signal));
    (void)co_await recv(rank, from, tag);
  }
}

}  // namespace deisa::mpix

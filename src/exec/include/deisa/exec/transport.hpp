// Transport seam: how bytes move between "nodes".
//
// Two backends implement it:
//   * net::Cluster          — the modeled pruned-fat-tree interconnect
//                             (latency, bandwidth, NIC/uplink contention,
//                             jitter, fault classes) over the simulator.
//   * rt::ThreadedTransport — in-process transport doing real memcpys
//                             through per-node NIC locks, so contention is
//                             real contention instead of a queueing model.
//
// The delivery classes and the fault-hook contract are part of the seam:
// fault-aware senders behave identically regardless of the backend.
#pragma once

#include <cstdint>
#include <functional>

#include "deisa/exec/executor.hpp"

namespace deisa::exec {

/// How a message tolerates network faults. Senders declare it per send;
/// the transport's fault hook (if installed) may only perturb messages in
/// the ways their class permits. Reliable messages (RPCs with a blocked
/// caller, data-plane handoffs) are never dropped or duplicated — losing
/// one would wedge the workflow instead of exercising recovery.
enum class Delivery {
  kReliable,    // never perturbed (acks, replies, compute orders)
  kDroppable,   // may be silently lost (heartbeats)
  kIdempotent,  // may be duplicated; receiver dedups (task_finished,
                // scatter registrations)
  kLossy,       // may be dropped or duplicated
  kBulk,        // data-plane transfer: may be delayed, never lost
};

/// Verdict of the fault hook for one message.
struct FaultDecision {
  bool drop = false;
  bool duplicate = false;
  double extra_delay = 0.0;  // seconds added to the transfer duration
};

/// Installed by a FaultInjector; consulted on every perturbable send.
using FaultHook =
    std::function<FaultDecision(int src, int dst, std::uint64_t bytes,
                                Delivery delivery)>;

/// What happened to a control send under fault injection. `copies` is the
/// number of times the caller should enqueue the message at the receiver
/// (0 = dropped, 2 = duplicated); delivery of the payload is caller-side,
/// so the transport can only report the decision.
struct SendResult {
  bool delivered = true;
  int copies = 1;
};

/// Statistics over all completed sends (observability and tests).
struct TransferStats {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

/// What every backend counts, each in its own obs::CounterBlock.
enum class TransportCounter : std::uint8_t {
  kTransfers,        // bulk transfer() calls
  kControlMessages,  // send_control() calls
  kBytes,            // bytes of both
  kFaultsDelayed,    // bulk transfers the fault hook delayed
  kFaultsDropped,
  kFaultsDuplicated,
  kLocalBypass,      // same-node transfers that skipped the NIC (threads)
  kCount,
};

inline const char* metric_name(TransportCounter c) {
  using enum TransportCounter;
  switch (c) {
    case kTransfers: return "net.transfers";
    case kControlMessages: return "net.control_messages";
    case kBytes: return "net.bytes";
    case kFaultsDelayed: return "net.faults.delayed";
    case kFaultsDropped: return "net.faults.dropped";
    case kFaultsDuplicated: return "net.faults.duplicated";
    case kLocalBypass: return "rt.nic.local_bypass";
    case kCount: break;
  }
  return "?";
}

class Transport {
public:
  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;
  virtual ~Transport() = default;

  /// The executor all transfer coroutines run on.
  virtual Executor& executor() = 0;

  /// Move `bytes` from `src` to `dst` (node ids). Completes when the last
  /// byte lands. The fault hook may stretch the flow (kBulk extra_delay)
  /// but never lose it.
  virtual Co<void> transfer(int src, int dst, std::uint64_t bytes) = 0;

  /// Small control message. The returned SendResult tells fault-aware
  /// senders whether to enqueue the message 0, 1 or 2 times; callers
  /// sending kReliable traffic may ignore it.
  virtual Co<SendResult> send_control(
      int src, int dst, std::uint64_t bytes = 256,
      Delivery delivery = Delivery::kReliable) = 0;

  /// Install (or clear, with an empty function) the fault hook consulted
  /// on every perturbable send. Used by fault::FaultInjector.
  virtual void set_fault_hook(FaultHook hook) = 0;
  virtual bool has_fault_hook() const = 0;

  /// Snapshot of the send statistics (by value: the threaded backend
  /// maintains them atomically).
  virtual TransferStats stats() const = 0;

  /// Pass-by-reference token send (proxy data plane): ships an ownership
  /// handle — location + key + size + refcount + cause — instead of the
  /// payload it names. Costs control-message bytes regardless of the
  /// payload size; the bytes move later (if ever) via transfer() when a
  /// consumer dereferences the handle.
  Co<SendResult> transfer_token(int src, int dst, std::size_t key_bytes,
                                Delivery delivery = Delivery::kReliable) {
    return send_control(src, dst, kTokenBytes + key_bytes, delivery);
  }

  /// Framing cost of one proxy handle on the wire (location + size +
  /// refcount + cause + envelope; the key string is priced separately).
  static constexpr std::uint64_t kTokenBytes = 96;
};

}  // namespace deisa::exec
